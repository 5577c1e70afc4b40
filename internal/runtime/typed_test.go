package runtime

import (
	"testing"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/types"
)

// TestNoTypedStorageIsBoxed pins the meaning of the NoTypedStorage
// ablation. The same trigger compiler builds both engines, so the option
// must visibly switch off every typed decision: each map generic, each
// parameter check validate-only, no int-guaranteed key positions. The
// default build of the same program is checked first, so the query is one
// that does take the packed path when allowed.
func TestNoTypedStorageIsBoxed(t *testing.T) {
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int", "V:float"),
		schema.NewRelation("S", "B:int", "W:float"),
	)
	c := compileSQL(t, cat, "select R.A, sum(R.V * S.W) from R, S where R.B = S.B group by R.A")

	typed, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed := 0
	for _, st := range typed.MemStats() {
		if st.Layout != storeGeneric.String() {
			packed++
		}
	}
	if packed == 0 {
		t.Fatal("default build has no packed map; the query does not exercise the typed path")
	}
	unboxed := map[types.Kind]bool{}
	for _, ct := range typed.triggers {
		for _, pc := range ct.checks {
			if pc.slot >= 0 {
				unboxed[pc.kind] = true
			}
		}
	}
	if !unboxed[types.KindInt] || !unboxed[types.KindFloat] {
		t.Fatalf("default build unboxes kinds %v, want int and float", unboxed)
	}

	eng, err := NewEngine(c.Program, Options{NoTypedStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range eng.MemStats() {
		if st.Layout != storeGeneric.String() {
			t.Errorf("map %s layout = %s, want %s", st.Name, st.Layout, storeGeneric)
		}
	}
	if len(eng.intPos) != 0 {
		t.Errorf("intPos = %v, want empty", eng.intPos)
	}
	checks := 0
	for key, ct := range eng.triggers {
		for _, pc := range ct.checks {
			checks++
			if pc.slot != -1 {
				t.Errorf("trigger %s: param %d (%s) unboxed into slot %d, want validate-only", key, pc.arg, pc.kind, pc.slot)
			}
		}
		if len(ct.env.ints) != 0 {
			t.Errorf("trigger %s: %d int slots, want none", key, len(ct.env.ints))
		}
	}
	if checks == 0 {
		t.Fatal("no parameter checks; int/float params must still be validated")
	}
}
