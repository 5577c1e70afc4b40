// Driver/shim emission: the second generated file that turns the query
// state of Generate's output into a runnable artifact, a subprocess whose
// main() speaks the native wire protocol over stdin/stdout (see the
// emitted doc comment and internal/native for the host side).
//
// Like the query file, the driver depends only on the standard library.
package codegen

import (
	"fmt"
	"strings"

	"dbtoaster/internal/ir"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/types"
)

// RelSpec describes one relation of the driver's dispatch table: its wire
// index, the per-column kinds events are encoded with, and the admission
// checks the host applies before encoding (KindNull = unchecked, exactly
// the interpreter's paramCheck set).
type RelSpec struct {
	Name      string
	Kinds     []types.Kind
	Checks    []types.Kind
	HasInsert bool
	HasDelete bool
}

// MapSpec describes one view map of the dump/load wire layout, in
// prog.MapOrder. KeyKinds is empty for a zero-arity (scalar) map.
type MapSpec struct {
	Name     string
	KeyKinds []types.Kind
}

// Spec is the wire contract between the host and a generated driver. Both
// sides derive it from the same annotated program, so indices, kinds, and
// map order agree by construction.
type Spec struct {
	Rels []RelSpec
	Maps []MapSpec
}

// RelIndex resolves a relation name (case-insensitive, like the catalog)
// to its wire index, or -1 when the program has no trigger for it.
func (s *Spec) RelIndex(name string) int {
	for i, r := range s.Rels {
		if strings.EqualFold(r.Name, name) {
			return i
		}
	}
	return -1
}

// ProgramSpec derives the wire contract from an annotated program. The
// relation table lists trigger relations in first-appearance order; both
// triggers of a relation must agree on parameter kinds (they are inferred
// from the same columns, so a mismatch is a compiler bug surfaced here).
func ProgramSpec(prog *ir.Program, cat *schema.Catalog) (*Spec, error) {
	g := &gen{prog: prog, cat: cat, kinds: map[string][]types.Kind{}}
	if err := g.loadKinds(); err != nil {
		return nil, err
	}
	spec := &Spec{}
	index := map[string]int{}
	for _, t := range prog.Triggers {
		rel, ok := cat.Relation(t.Relation)
		if !ok {
			return nil, fmt.Errorf("codegen: unknown relation %s", t.Relation)
		}
		kinds := make([]types.Kind, len(t.Params))
		checks := make([]types.Kind, len(t.Params))
		for i := range t.Params {
			kinds[i] = rel.Columns[i].Type
			if i < len(t.ParamKinds) && t.ParamKinds[i] != types.KindNull {
				kinds[i] = t.ParamKinds[i]
				checks[i] = t.ParamKinds[i]
			}
		}
		idx, seen := index[rel.Name]
		if !seen {
			idx = len(spec.Rels)
			index[rel.Name] = idx
			spec.Rels = append(spec.Rels, RelSpec{Name: rel.Name, Kinds: kinds, Checks: checks})
		} else {
			prev := spec.Rels[idx]
			for i := range kinds {
				if i >= len(prev.Kinds) || prev.Kinds[i] != kinds[i] || prev.Checks[i] != checks[i] {
					return nil, fmt.Errorf("codegen: triggers of %s disagree on parameter kinds", rel.Name)
				}
			}
		}
		if t.Insert {
			spec.Rels[idx].HasInsert = true
		} else {
			spec.Rels[idx].HasDelete = true
		}
	}
	for _, name := range prog.MapOrder {
		spec.Maps = append(spec.Maps, MapSpec{Name: name, KeyKinds: g.kinds[name]})
	}
	return spec, nil
}

// driverStatic is the query-independent part of every emitted driver: the
// protocol loop, framing, and the scalar wire codecs. Kept as one literal
// so the emitted file reads as ordinary hand-written Go.
const driverStatic = `// state is the process-wide query state the protocol loop drives.
var state = NewState()

// main speaks the native wire protocol: length-prefixed frames on
// stdin/stdout, integers little-endian. Host→child opcodes: 'B' event
// batch (u32 count, then per event u8 insert flag, u8 relation index,
// then the relation's columns in wire form), 'S' state dump request,
// 'R' state replace (the dump body layout), 'Q' quit. Child→host: 'D'
// dump reply, 'K' replace ack, 'E' error (then exit 1). Batches are not
// acknowledged — the host pipelines them and syncs at the next 'S'/'R'
// barrier. Wire forms: int64 and float64 are 8 bytes, strings u32
// length + bytes, bools one byte.
func main() {
	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(in, hdr[:]); err != nil {
			if err == io.EOF {
				return
			}
			die(out, "read frame: "+err.Error())
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(in, buf); err != nil {
			die(out, "read frame body: "+err.Error())
		}
		if n == 0 {
			die(out, "empty frame")
		}
		switch buf[0] {
		case 'B':
			if err := applyBatch(buf[1:]); err != nil {
				die(out, "batch: "+err.Error())
			}
		case 'S':
			reply(out, dumpBody([]byte{'D'}))
		case 'R':
			if err := loadState(buf[1:]); err != nil {
				die(out, "load: "+err.Error())
			}
			reply(out, []byte{'K'})
		case 'Q':
			out.Flush()
			return
		default:
			die(out, fmt.Sprintf("unknown opcode %q", buf[0]))
		}
	}
}

// reply writes one framed payload and flushes (every reply is a barrier).
func reply(out *bufio.Writer, payload []byte) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	out.Write(hdr[:])
	out.Write(payload)
	out.Flush()
}

// die reports a protocol error and exits; the host surfaces the message.
func die(out *bufio.Writer, msg string) {
	reply(out, append([]byte{'E'}, msg...))
	os.Exit(1)
}

func readI64(p []byte, off *int) (int64, error) {
	if *off+8 > len(p) {
		return 0, errTruncated
	}
	v := int64(binary.LittleEndian.Uint64(p[*off:]))
	*off += 8
	return v, nil
}

func readF64(p []byte, off *int) (float64, error) {
	if *off+8 > len(p) {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p[*off:]))
	*off += 8
	return v, nil
}

func readU64(p []byte, off *int) (uint64, error) {
	if *off+8 > len(p) {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(p[*off:])
	*off += 8
	return v, nil
}

func readStr(p []byte, off *int) (string, error) {
	if *off+4 > len(p) {
		return "", errTruncated
	}
	n := int(binary.LittleEndian.Uint32(p[*off:]))
	*off += 4
	if n < 0 || *off+n > len(p) {
		return "", errTruncated
	}
	v := string(p[*off : *off+n])
	*off += n
	return v, nil
}

func readBool(p []byte, off *int) (bool, error) {
	if *off+1 > len(p) {
		return false, errTruncated
	}
	v := p[*off] != 0
	*off++
	return v, nil
}

var errTruncated = errors.New("truncated frame")

func putU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

func putI64(b []byte, v int64) []byte { return putU64(b, uint64(v)) }

func putF64(b []byte, v float64) []byte { return putU64(b, math.Float64bits(v)) }

func putStr(b []byte, v string) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(len(v)))
	return append(append(b, w[:]...), v...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

var _, _, _, _, _, _, _, _, _, _ = readI64, readF64, readU64, readStr, readBool, putU64, putI64, putF64, putStr, putBool

`

// GenerateDriver renders the driver/shim for prog as a second file of the
// same package main that Generate(prog, cat, "main") produces.
func GenerateDriver(prog *ir.Program, cat *schema.Catalog) (string, error) {
	spec, err := ProgramSpec(prog, cat)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by dbtoaster for query %s; DO NOT EDIT.\n", prog.QueryName)
	fmt.Fprintf(&b, "//\n// Driver shim: subprocess protocol loop.\n")
	fmt.Fprintf(&b, "package main\n\n")
	fmt.Fprintf(&b, "import (\n\t\"bufio\"\n\t\"encoding/binary\"\n\t\"errors\"\n\t\"fmt\"\n\t\"io\"\n\t\"math\"\n\t\"os\"\n)\n\n")
	b.WriteString(driverStatic)
	emitApplyBatch(&b, spec)
	emitDump(&b, spec)
	emitLoad(&b, spec)
	return b.String(), nil
}

// handlerCall renders the typed trigger invocation for one relation, or a
// discard statement when the program has no trigger for that direction.
func handlerCall(r RelSpec, insert bool, vars []string) string {
	has := r.HasInsert
	op := "Insert"
	if !insert {
		has = r.HasDelete
		op = "Delete"
	}
	if !has {
		// No trigger for this direction: the interpreter ignores the
		// event, so the driver discards the decoded columns.
		if len(vars) == 0 {
			return "// no " + strings.ToLower(op) + " trigger"
		}
		return fmt.Sprintf("_ = []interface{}{%s} // no %s trigger", strings.Join(vars, ", "), strings.ToLower(op))
	}
	return fmt.Sprintf("state.On%s%s(%s)", op, ident(r.Name), strings.Join(vars, ", "))
}

// emitApplyBatch renders the subprocess batch decoder: typed, offset-based
// decoding straight into the trigger handlers, no boxing on the hot path.
func emitApplyBatch(b *strings.Builder, spec *Spec) {
	fmt.Fprintf(b, "// applyBatch decodes and applies one 'B' payload.\nfunc applyBatch(p []byte) error {\n")
	fmt.Fprintf(b, "\tif len(p) < 4 {\n\t\treturn errTruncated\n\t}\n")
	fmt.Fprintf(b, "\tn := binary.LittleEndian.Uint32(p)\n\toff := 4\n")
	fmt.Fprintf(b, "\tfor i := uint32(0); i < n; i++ {\n")
	fmt.Fprintf(b, "\t\tif off+2 > len(p) {\n\t\t\treturn errTruncated\n\t\t}\n")
	fmt.Fprintf(b, "\t\tins := p[off] == 1\n\t\trel := p[off+1]\n\t\toff += 2\n")
	if len(spec.Rels) == 0 {
		// A trigger-less program (e.g. a contradictory WHERE) dispatches
		// nothing; keep the decoded flag referenced so the file compiles.
		fmt.Fprintf(b, "\t\t_ = ins\n")
	}
	fmt.Fprintf(b, "\t\tswitch rel {\n")
	for i, r := range spec.Rels {
		fmt.Fprintf(b, "\t\tcase %d: // %s\n", i, r.Name)
		vars := make([]string, len(r.Kinds))
		for j, k := range r.Kinds {
			vars[j] = fmt.Sprintf("v%d", j)
			fmt.Fprintf(b, "\t\t\t%s, err := %s(p, &off)\n\t\t\tif err != nil {\n\t\t\t\treturn err\n\t\t\t}\n", vars[j], readFn(k))
		}
		fmt.Fprintf(b, "\t\t\tif ins {\n\t\t\t\t%s\n\t\t\t} else {\n\t\t\t\t%s\n\t\t\t}\n",
			handlerCall(r, true, vars), handlerCall(r, false, vars))
	}
	fmt.Fprintf(b, "\t\tdefault:\n\t\t\treturn fmt.Errorf(\"unknown relation index %%d\", rel)\n\t\t}\n\t}\n\treturn nil\n}\n\n")
}

// emitDump renders the state dump: per map in declaration order, entry
// count then entries (key fields in wire form, float64 value). A scalar
// map contributes one entry when non-zero and none otherwise — the same
// retention the interpreter's zero-arity map exhibits.
func emitDump(b *strings.Builder, spec *Spec) {
	fmt.Fprintf(b, "// dumpBody appends the state dump to a reply payload.\nfunc dumpBody(body []byte) []byte {\n")
	for _, ms := range spec.Maps {
		n := ident(ms.Name)
		switch len(ms.KeyKinds) {
		case 0:
			fmt.Fprintf(b, "\tif state.%s != 0 {\n\t\tbody = putU64(body, 1)\n\t\tbody = putF64(body, state.%s)\n\t} else {\n\t\tbody = putU64(body, 0)\n\t}\n", n, n)
		case 1:
			fmt.Fprintf(b, "\tbody = putU64(body, uint64(len(state.%s)))\n", n)
			fmt.Fprintf(b, "\tfor k, v := range state.%s {\n\t\tbody = %s(body, k)\n\t\tbody = putF64(body, v)\n\t}\n", n, putFn(ms.KeyKinds[0]))
		default:
			fmt.Fprintf(b, "\tbody = putU64(body, uint64(len(state.%s)))\n", n)
			fmt.Fprintf(b, "\tfor k, v := range state.%s {\n", n)
			for i, kk := range ms.KeyKinds {
				fmt.Fprintf(b, "\t\tbody = %s(body, k.K%d)\n", putFn(kk), i)
			}
			fmt.Fprintf(b, "\t\tbody = putF64(body, v)\n\t}\n")
		}
	}
	fmt.Fprintf(b, "\treturn body\n}\n\n")

}

// emitLoad renders the restore path: loadState replaces the whole state
// from an 'R' payload (dump body layout).
func emitLoad(b *strings.Builder, spec *Spec) {
	fmt.Fprintf(b, "// loadState replaces state from an 'R' payload.\nfunc loadState(p []byte) error {\n\tns := NewState()\n\toff := 0\n")
	for mi, ms := range spec.Maps {
		n := ident(ms.Name)
		fmt.Fprintf(b, "\tn%d, err := readU64(p, &off)\n\tif err != nil {\n\t\treturn err\n\t}\n", mi)
		switch len(ms.KeyKinds) {
		case 0:
			fmt.Fprintf(b, "\tif n%d > 1 {\n\t\treturn fmt.Errorf(\"scalar map %s has %%d entries\", n%d)\n\t}\n", mi, ms.Name, mi)
			fmt.Fprintf(b, "\tif n%d == 1 {\n\t\tv, err := readF64(p, &off)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n\t\tns.%s = v\n\t}\n", mi, n)
		default:
			fmt.Fprintf(b, "\tfor j := uint64(0); j < n%d; j++ {\n", mi)
			fields := make([]string, len(ms.KeyKinds))
			for i, kk := range ms.KeyKinds {
				fields[i] = fmt.Sprintf("k%d", i)
				fmt.Fprintf(b, "\t\tk%d, err := %s(p, &off)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", i, readFn(kk))
			}
			fmt.Fprintf(b, "\t\tv, err := readF64(p, &off)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n")
			if len(ms.KeyKinds) == 1 {
				fmt.Fprintf(b, "\t\tns.%s[k0] = v\n\t}\n", n)
			} else {
				fmt.Fprintf(b, "\t\tns.%s[%sKey{%s}] = v\n\t}\n", n, n, strings.Join(fields, ", "))
			}
		}
	}
	fmt.Fprintf(b, "\tif off != len(p) {\n\t\treturn fmt.Errorf(\"load payload has %%d trailing bytes\", len(p)-off)\n\t}\n")
	fmt.Fprintf(b, "\tstate = ns\n\treturn nil\n}\n")

}

// readFn/putFn name the wire codec for a kind.
func readFn(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "readI64"
	case types.KindFloat:
		return "readF64"
	case types.KindString:
		return "readStr"
	case types.KindBool:
		return "readBool"
	default:
		return "readF64"
	}
}

func putFn(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "putI64"
	case types.KindFloat:
		return "putF64"
	case types.KindString:
		return "putStr"
	case types.KindBool:
		return "putBool"
	default:
		return "putF64"
	}
}
