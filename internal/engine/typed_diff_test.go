package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// mapState snapshots every view map of a runtime engine as encoded-key →
// accumulated value, the ground truth the interpreter and the typed and
// generic physical layers must agree on entry for entry.
func mapState(rt *runtime.Engine) map[string]float64 {
	out := map[string]float64{}
	var buf []byte
	for _, name := range rt.Program().MapOrder {
		m := rt.Map(name)
		if m == nil {
			continue
		}
		m.Scan(func(t types.Tuple, v float64) {
			buf = types.AppendKey(buf[:0], t)
			out[name+"\x00"+string(buf)] = v
		})
	}
	return out
}

// diffMapStates reports the first disagreement between two snapshots.
func diffMapStates(ref, got map[string]float64) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("entry count: ref %d, got %d", len(ref), len(got))
	}
	for k, rv := range ref {
		gv, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %q: missing", k)
		}
		if rv != gv {
			return fmt.Sprintf("key %q: ref %v, got %v", k, rv, gv)
		}
	}
	return ""
}

// typedDiffStream builds an insert/delete stream whose float column values
// are dyadic rationals (multiples of 0.25), so every partial sum is exact
// in float64 and typed-vs-generic agreement can be required bitwise, not
// approximately.
func typedDiffStream(r *rand.Rand, rels []string, n int) []stream.Event {
	var history []stream.Event
	var out []stream.Event
	for i := 0; i < n; i++ {
		if len(history) > 0 && r.Intn(3) == 0 {
			old := history[r.Intn(len(history))]
			out = append(out, stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
			continue
		}
		rel := rels[r.Intn(len(rels))]
		ev := stream.Event{Op: stream.Insert, Relation: rel, Args: types.Tuple{
			types.NewInt(int64(r.Intn(6))),
			types.NewInt(int64(r.Intn(6))),
			types.NewFloat(float64(r.Intn(32)) * 0.25),
		}}
		history = append(history, ev)
		out = append(out, ev)
	}
	return out
}

// typedDiffQueries is the differential lineup: int-only group keys (packed
// storage on the fast path), a float measure (unboxed float kernels), a
// division that must fall back to boxed evaluation, and a join (loops over
// packed and generic maps).
func typedDiffQueries() (*schema.Catalog, []string) {
	cat := schema.NewCatalog(
		schema.NewRelation("T0", "A0:int", "B0:int", "V0:float"),
		schema.NewRelation("T1", "A1:int", "B1:int", "V1:float"),
	)
	return cat, []string{
		"select T0.A0, sum(T0.V0) from T0 group by T0.A0",
		"select T0.A0, T0.B0, count(*) from T0 group by T0.A0, T0.B0",
		"select T0.A0, sum(T0.B0 / 2) from T0 group by T0.A0", // int division: boxed fallback
		"select sum(T0.V0 * T1.V1) from T0, T1 where T0.B0 = T1.B1",
		"select T0.A0, sum(T0.B0 * T1.A1), count(*) from T0, T1 where T0.B0 = T1.B1 and T0.A0 > 1 group by T0.A0",
		"select T0.A0, avg(T0.V0), min(T0.B0), max(T0.V0) from T0 group by T0.A0",
	}
}

// typedDiffPanel lists the engines every typed differential runs side by
// side. The boxed IR interpreter comes first: it is the reference the
// typed engine (packed maps, unboxed kernels) and the generic ablation
// (Options.NoTypedStorage, the same trigger compiler forced to generic
// maps and boxed closures) must both match.
var typedDiffPanel = []struct {
	name string
	opts runtime.Options
}{
	{"interpreter", runtime.Options{Interpret: true}},
	{"typed", runtime.Options{}},
	{"generic", runtime.Options{NoTypedStorage: true}},
}

// newTypedDiffPanel builds one Toaster per typedDiffPanel entry.
func newTypedDiffPanel(q *Query) ([]*Toaster, error) {
	out := make([]*Toaster, len(typedDiffPanel))
	for i, p := range typedDiffPanel {
		tt, err := NewToaster(q, p.opts)
		if err != nil {
			return nil, fmt.Errorf("%s toaster: %w", p.name, err)
		}
		out[i] = tt
	}
	return out, nil
}

// feedTypedDiffPanel applies one event to every engine of the panel.
func feedTypedDiffPanel(panel []*Toaster, ev stream.Event) error {
	for i, tt := range panel {
		if err := tt.OnEvent(ev); err != nil {
			return fmt.Errorf("%s OnEvent: %w", typedDiffPanel[i].name, err)
		}
	}
	return nil
}

// checkTypedDiffPanel requires every engine to match the reference
// (panel[0]) on the full map state, entry for entry, bitwise, and on
// results; the error describes the first disagreement.
func checkTypedDiffPanel(panel []*Toaster) error {
	refState := mapState(panel[0].Runtime())
	ref, err := panel[0].Results()
	if err != nil {
		return fmt.Errorf("%s results: %w", typedDiffPanel[0].name, err)
	}
	for i, tt := range panel[1:] {
		name := typedDiffPanel[i+1].name
		if d := diffMapStates(refState, mapState(tt.Runtime())); d != "" {
			return fmt.Errorf("%s map state diverges: %s", name, d)
		}
		got, err := tt.Results()
		if err != nil {
			return fmt.Errorf("%s results: %w", name, err)
		}
		if !ref.Equal(got) {
			return fmt.Errorf("%s results diverge\nref:\n%s\ngot:\n%s", name, ref, got)
		}
	}
	return nil
}

// TestTypedGenericDifferential pins the typed physical layer and the
// generic ablation to the boxed interpreter: for every query in the
// lineup and a set of random streams, the typed engine (packed maps,
// unboxed kernels), the generic engine (Options.NoTypedStorage) and the
// interpreter (Options.Interpret) must produce identical results and agree
// on the full map state, entry for entry, bitwise.
func TestTypedGenericDifferential(t *testing.T) {
	cat, queries := typedDiffQueries()
	rels := []string{"T0", "T1"}
	for qi, src := range queries {
		t.Run(fmt.Sprintf("query%d", qi), func(t *testing.T) {
			q, err := Prepare(src, cat)
			if err != nil {
				t.Fatalf("prepare %q: %v", src, err)
			}
			for trial := 0; trial < 4; trial++ {
				r := rand.New(rand.NewSource(int64(7000 + 100*qi + trial)))
				events := typedDiffStream(r, rels, 250)

				panel, err := newTypedDiffPanel(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range events {
					if err := feedTypedDiffPanel(panel, ev); err != nil {
						t.Fatal(err)
					}
				}
				if err := checkTypedDiffPanel(panel); err != nil {
					t.Fatalf("%q trial %d: %v", src, trial, err)
				}
			}
		})
	}
}

// FuzzTypedGenericAgreement drives fuzzer-chosen insert/delete/update
// streams through the interpreter, typed and generic engines and requires
// the full map states to match exactly. Each byte triple encodes one
// operation: (op/relation selector, key byte, value byte); deletes replay
// a prior insert so multiplicities go negative-and-back the same way real
// retraction streams do.
func FuzzTypedGenericAgreement(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 128, 9, 9})
	f.Add([]byte{7, 200, 13, 7, 200, 13, 135, 0, 0, 12, 3, 250})
	f.Add([]byte{})

	cat, queries := typedDiffQueries()
	prepared := make([]*Query, len(queries))
	for i, src := range queries {
		q, err := Prepare(src, cat)
		if err != nil {
			f.Fatalf("prepare %q: %v", src, err)
		}
		prepared[i] = q
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := prepared[int(data[0])%len(prepared)]
		panel, err := newTypedDiffPanel(q)
		if err != nil {
			t.Fatal(err)
		}
		var history []stream.Event
		for i := 1; i+2 < len(data); i += 3 {
			sel, kb, vb := data[i], data[i+1], data[i+2]
			var ev stream.Event
			if sel >= 128 && len(history) > 0 {
				old := history[int(kb)%len(history)]
				ev = stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args}
			} else {
				rel := "T0"
				if sel%2 == 1 {
					rel = "T1"
				}
				ev = stream.Event{Op: stream.Insert, Relation: rel, Args: types.Tuple{
					types.NewInt(int64(kb % 8)),
					types.NewInt(int64(kb / 8 % 8)),
					types.NewFloat(float64(vb) * 0.25),
				}}
				history = append(history, ev)
			}
			if err := feedTypedDiffPanel(panel, ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkTypedDiffPanel(panel); err != nil {
			t.Fatal(err)
		}
	})
}
