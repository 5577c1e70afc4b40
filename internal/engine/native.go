package engine

import (
	"bytes"
	"fmt"
	"io"

	"dbtoaster/internal/codegen"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/native"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// NativeToaster executes the query's *generated* Go — the paper's actual
// deployment story ("compile to native code"), where the closure engines
// only interpret or close over the trigger program. The generated source
// is compiled by the Go toolchain and driven as a child process; the
// engine keeps a shadow interpreter runtime whose maps are *not* fed
// events but are hydrated from the child's state dump at every read
// barrier, so result assembly, MemEntries, and snapshot encoding reuse
// the battle-tested closure paths — and any state divergence between
// generated and closure execution surfaces as a bitwise snapshot mismatch.
//
// A child failure is not recovered: the child's errors are sticky
// (native.Proc), so every later call reports the first one.
type NativeToaster struct {
	child  *native.Proc
	spec   *codegen.Spec
	shadow *Toaster
	q      *Query
	// checks[rel][i] is the admission kind for column i of wire relation
	// rel (KindNull = unchecked), mirroring the interpreter's paramCheck.
	checks [][]types.Kind
	dirty  bool // child has applied events the shadow has not seen
}

// NewNativeToaster generates, builds, and launches the query's native
// artifact. Build artifacts are cached by source hash, so repeated
// constructions of the same query skip the toolchain.
func NewNativeToaster(q *Query) (*NativeToaster, error) {
	comp, err := compiler.Compile(q.Translated)
	if err != nil {
		return nil, err
	}
	src, err := codegen.Generate(comp.Program, q.Catalog, "main")
	if err != nil {
		return nil, err
	}
	driver, err := codegen.GenerateDriver(comp.Program, q.Catalog)
	if err != nil {
		return nil, err
	}
	spec, err := codegen.ProgramSpec(comp.Program, q.Catalog)
	if err != nil {
		return nil, err
	}
	bin, err := native.Build(src, driver)
	if err != nil {
		return nil, err
	}
	child, err := native.StartProc(bin, spec)
	if err != nil {
		return nil, err
	}
	shadow, err := NewToasterCompiled(q, comp, runtime.Options{})
	if err != nil {
		child.Close()
		return nil, err
	}
	t := &NativeToaster{child: child, spec: spec, shadow: shadow, q: q}
	for _, r := range spec.Rels {
		t.checks = append(t.checks, r.Checks)
	}
	return t, nil
}

// Name implements Engine.
func (t *NativeToaster) Name() string { return "dbtoaster-native" }

// Spec exposes the wire contract (for tooling and tests).
func (t *NativeToaster) Spec() *codegen.Spec { return t.spec }

// admit coerces and validates one event against the wire contract,
// returning the native event and whether the program consumes it at all
// (relations with no trigger are ignored, as the interpreter does).
func (t *NativeToaster) admit(ev stream.Event) (native.Event, bool, error) {
	args, err := coerce(t.q.Catalog, ev)
	if err != nil {
		return native.Event{}, false, err
	}
	rel := t.spec.RelIndex(ev.Relation)
	if rel < 0 {
		return native.Event{}, false, nil
	}
	for i, want := range t.checks[rel] {
		if want == types.KindNull || i >= len(args) {
			continue
		}
		if got := args[i].Kind(); got != want {
			r, _ := t.q.Catalog.Relation(ev.Relation)
			return native.Event{}, false, fmt.Errorf("native: %s: column %d (%s) expects %s, got %s",
				r.Name, i, r.Columns[i].Name, want, got)
		}
	}
	return native.Event{Rel: rel, Insert: ev.Op == stream.Insert, Args: args}, true, nil
}

// OnEvent implements Engine.
func (t *NativeToaster) OnEvent(ev stream.Event) error {
	return t.OnEventBatch([]stream.Event{ev})
}

// OnEventBatch implements Engine: admitted events are encoded as one
// pipelined batch — the child is not awaited, so per-event cost is a
// buffered write; the next read barrier surfaces any child failure.
func (t *NativeToaster) OnEventBatch(evs []stream.Event) error {
	batch := make([]native.Event, 0, len(evs))
	for _, ev := range evs {
		ne, ok, err := t.admit(ev)
		if err != nil {
			// Flush admitted prefix first so state matches the interpreter's
			// stop-at-error semantics.
			if len(batch) > 0 {
				if aerr := t.applyAdmitted(batch); aerr != nil {
					return aerr
				}
			}
			return err
		}
		if ok {
			batch = append(batch, ne)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	return t.applyAdmitted(batch)
}

// applyAdmitted hands one admitted batch to the child.
func (t *NativeToaster) applyAdmitted(batch []native.Event) error {
	if err := t.child.Apply(batch); err != nil {
		return err
	}
	t.dirty = true
	return nil
}

// sync hydrates the shadow runtime from the child's state dump. The dump
// is rendered through the engine snapshot encoder, so it passes the same
// validation a checkpoint restore would.
func (t *NativeToaster) sync() error {
	if !t.dirty {
		return nil
	}
	// Pipelined Apply failures surface here, at the barrier.
	dump, err := t.child.Dump()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	order := make([]string, len(t.spec.Maps))
	byName := make(map[string]native.MapDump, len(dump))
	for i, d := range dump {
		order[i] = t.spec.Maps[i].Name
		byName[d.Name] = d
	}
	err = runtime.WriteSnapshot(&buf, 0, order, func(name string, visit func(types.Tuple, float64)) {
		d := byName[name]
		for i, k := range d.Keys {
			visit(k, d.Vals[i])
		}
	})
	if err != nil {
		return err
	}
	if _, err := t.shadow.Runtime().RestoreMeta(&buf); err != nil {
		return fmt.Errorf("native: shadow hydration: %w", err)
	}
	t.dirty = false
	return nil
}

// shadowDump renders the shadow's maps in spec order, the wholesale state
// a restored child is loaded with.
func (t *NativeToaster) shadowDump() []native.MapDump {
	dump := make([]native.MapDump, len(t.spec.Maps))
	rt := t.shadow.Runtime()
	for i, ms := range t.spec.Maps {
		d := native.MapDump{Name: ms.Name}
		rt.Map(ms.Name).Scan(func(k types.Tuple, v float64) {
			d.Keys = append(d.Keys, k.Clone())
			d.Vals = append(d.Vals, v)
		})
		dump[i] = d
	}
	return dump
}

// Flush is the explicit barrier: all pipelined batches applied and the
// shadow state caught up. The bakeoff calls it before timing stops.
func (t *NativeToaster) Flush() error { return t.sync() }

// Results implements Engine.
func (t *NativeToaster) Results() (*Result, error) {
	if err := t.sync(); err != nil {
		return nil, err
	}
	return t.shadow.Results()
}

// MemEntries implements Engine, reporting the child's materialized entry
// count (via the hydrated shadow, which holds an identical copy).
func (t *NativeToaster) MemEntries() int {
	if err := t.sync(); err != nil {
		return -1
	}
	return t.shadow.MemEntries()
}

// StateSnapshot implements Durable: the snapshot is written from the
// hydrated shadow, so it is byte-identical to a closure engine snapshot
// of the same logical state.
func (t *NativeToaster) StateSnapshot(w io.Writer, watermark uint64) error {
	if err := t.sync(); err != nil {
		return err
	}
	return t.shadow.StateSnapshot(w, watermark)
}

// StateRestore implements Durable: the snapshot restores into the shadow
// (full validation, untouched on error), then the child's state is
// replaced wholesale from the shadow's maps.
func (t *NativeToaster) StateRestore(r io.Reader) (uint64, error) {
	wm, err := t.shadow.StateRestore(r)
	if err != nil {
		return 0, err
	}
	if err := t.child.Load(t.shadowDump()); err != nil {
		return 0, err
	}
	t.dirty = false
	return wm, nil
}

// Close terminates the child artifact. The engine is unusable afterwards.
func (t *NativeToaster) Close() error { return t.child.Close() }
