package native

import (
	"os"
	"os/exec"
	"testing"

	"dbtoaster/internal/codegen"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/translate"
	"dbtoaster/internal/types"
)

func testCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
		schema.NewRelation("sales", "region:string", "amount:float", "qty:int"),
	)
}

// buildQuery compiles a SQL statement down to a built subprocess artifact
// plus its wire spec, using a test-scoped build cache.
func buildQuery(t *testing.T, src string) (string, *codegen.Spec) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sql.Analyze(stmt, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	q, err := translate.Translate("q", a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	query, err := codegen.Generate(c.Program, testCatalog(), "main")
	if err != nil {
		t.Fatal(err)
	}
	driver, err := codegen.GenerateDriver(c.Program, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := codegen.ProgramSpec(c.Program, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	os.Setenv("DBT_NATIVE_CACHE", cacheDirFor(t))
	t.Cleanup(func() { os.Unsetenv("DBT_NATIVE_CACHE") })
	bin, err := Build(query, driver)
	if err != nil {
		t.Fatal(err)
	}
	return bin, spec
}

// cacheDirFor shares one build cache across the whole test binary run so
// repeated subtests of the same query hit the cache.
var sharedCache string

func cacheDirFor(t *testing.T) string {
	if sharedCache == "" {
		dir, err := os.MkdirTemp("", "dbt-native-test-")
		if err != nil {
			t.Fatal(err)
		}
		sharedCache = dir
	}
	return sharedCache
}

func findMap(t *testing.T, dump []MapDump, name string) MapDump {
	t.Helper()
	for _, d := range dump {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("map %s not in dump %+v", name, dump)
	return MapDump{}
}

// TestSubprocessEndToEnd drives a grouped query through the full path:
// build, spawn, pipelined batches, dump, state replace, dump again.
func TestSubprocessEndToEnd(t *testing.T) {
	bin, spec := buildQuery(t, "select region, sum(amount) from sales group by region")
	child, err := StartProc(bin, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()

	rel := spec.RelIndex("sales")
	if rel < 0 {
		t.Fatalf("sales not in spec %+v", spec.Rels)
	}
	ev := func(insert bool, region string, amount float64, qty int64) Event {
		return Event{Rel: rel, Insert: insert, Args: types.Tuple{
			types.NewString(region), types.NewFloat(amount), types.NewInt(qty),
		}}
	}
	if err := child.Apply([]Event{
		ev(true, "east", 10, 1),
		ev(true, "west", 5, 2),
		ev(true, "east", 2.5, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := child.Apply([]Event{ev(false, "west", 5, 2)}); err != nil {
		t.Fatal(err)
	}
	dump, err := child.Dump()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	sums := dump[1] // q_c0 is the group multiplicity map, q_c1 the sum
	for i, k := range sums.Keys {
		got[k[0].Str()] = sums.Vals[i]
	}
	// west's sum went back to zero, so the entry must be deleted (the
	// retention bugfix this PR pins): only east survives.
	if len(got) != 1 || got["east"] != 12.5 {
		t.Fatalf("unexpected dump state %v (full dump %+v)", got, dump)
	}

	// Replace state wholesale and confirm the child serves it back.
	loaded := make([]MapDump, len(dump))
	for i := range dump {
		loaded[i] = MapDump{Name: dump[i].Name}
	}
	loaded[1].Keys = []types.Tuple{{types.NewString("north")}}
	loaded[1].Vals = []float64{42}
	if err := child.Load(loaded); err != nil {
		t.Fatal(err)
	}
	dump2, err := child.Dump()
	if err != nil {
		t.Fatal(err)
	}
	m := findMap(t, dump2, dump[1].Name)
	if len(m.Keys) != 1 || m.Keys[0][0].Str() != "north" || m.Vals[0] != 42 {
		t.Fatalf("post-load dump %+v", dump2)
	}
	if err := child.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubprocessChildError checks a decode failure surfaces as a sticky
// child-error with the message attached.
func TestSubprocessChildError(t *testing.T) {
	bin, spec := buildQuery(t, "select region, sum(amount) from sales group by region")
	child, err := StartProc(bin, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	// A frame with an out-of-range relation index makes the child die.
	if err := child.writeFrame([]byte{'B', 1, 0, 0, 0, 1, 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := child.Dump(); err == nil {
		t.Fatal("expected a child error after a bad frame")
	}
	// Sticky: later calls fail fast with the same error.
	if err := child.Apply(nil); err == nil {
		t.Fatal("expected sticky error")
	}
}

// TestBuildCache verifies a second Build of identical sources is a cache
// hit (same path, no rebuild) and a source tweak changes the key.
func TestBuildCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	os.Setenv("DBT_NATIVE_CACHE", cacheDirFor(t))
	defer os.Unsetenv("DBT_NATIVE_CACHE")
	query := "package main\n\nfunc f() {}\n"
	driver := "package main\n\nfunc main() { f() }\n"
	p1, err := Build(query, driver)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(query, driver)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("cache miss: %s vs %s", p1, p2)
	}
	st2, err := os.Stat(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !st1.ModTime().Equal(st2.ModTime()) {
		t.Fatal("artifact rebuilt despite identical sources")
	}
	p3, err := Build(query+"\n// v2\n", driver)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different sources mapped to the same artifact")
	}
}
