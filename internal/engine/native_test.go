package engine

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"dbtoaster/internal/native"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/qgen"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/tpch"
	"dbtoaster/internal/types"
)

// skipWithoutToolchain gates native-engine tests: they shell out to
// `go build` for the first construction of each query.
func skipWithoutToolchain(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
}

// nativePair builds the native engine and the closure reference for one
// query; both are torn down with the test.
func nativePair(t *testing.T, src string, cat *schema.Catalog) (*NativeToaster, *Toaster) {
	t.Helper()
	q, err := Prepare(src, cat)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	nat, err := NewNativeToaster(q)
	if err != nil {
		t.Fatalf("NewNativeToaster(%q): %v", src, err)
	}
	t.Cleanup(func() { nat.Close() })
	ref, err := NewToaster(q, runtime.Options{})
	if err != nil {
		t.Fatalf("NewToaster(%q): %v", src, err)
	}
	return nat, ref
}

// requireSnapshotEqual asserts the two engines' checkpoint encodings are
// byte-identical — map state parity, not just answer parity.
func requireSnapshotEqual(t *testing.T, nat *NativeToaster, ref *Toaster, context string) {
	t.Helper()
	var nb, rb bytes.Buffer
	if err := nat.StateSnapshot(&nb, 7); err != nil {
		t.Fatalf("%s: native snapshot: %v", context, err)
	}
	if err := ref.StateSnapshot(&rb, 7); err != nil {
		t.Fatalf("%s: reference snapshot: %v", context, err)
	}
	if !bytes.Equal(nb.Bytes(), rb.Bytes()) {
		t.Fatalf("%s: native snapshot diverges from closure engine (%d vs %d bytes)",
			context, nb.Len(), rb.Len())
	}
}

// driveParity feeds both engines and checks result + snapshot agreement at
// checkpoints.
func driveParity(t *testing.T, nat *NativeToaster, ref *Toaster, evs []stream.Event, checkEvery int, context string) {
	t.Helper()
	for i, ev := range evs {
		if err := nat.OnEvent(ev); err != nil {
			t.Fatalf("%s: native OnEvent(%s): %v", context, ev, err)
		}
		if err := ref.OnEvent(ev); err != nil {
			t.Fatalf("%s: reference OnEvent(%s): %v", context, ev, err)
		}
		if (i+1)%checkEvery != 0 && i != len(evs)-1 {
			continue
		}
		want, err := ref.Results()
		if err != nil {
			t.Fatalf("%s: reference Results: %v", context, err)
		}
		got, err := nat.Results()
		if err != nil {
			t.Fatalf("%s: native Results: %v", context, err)
		}
		if !want.Equal(got) {
			t.Fatalf("%s: after event %d (%s) native disagrees\nreference:\n%s\nnative:\n%s",
				context, i, evs[i], want, got)
		}
	}
	requireSnapshotEqual(t, nat, ref, context)
}

// TestNativeQgenDifferential pins the generated-code execution path
// against the closure engine over random queries with insert/delete
// traces: bitwise result agreement at checkpoints and byte-identical
// state snapshots at the end. A handful of seeds (each seed costs one
// toolchain build on a cold cache) rather than the full 220-seed panel.
func TestNativeQgenDifferential(t *testing.T) {
	skipWithoutToolchain(t)
	for i := 0; i < 6; i++ {
		seed := int64(1000 + i)
		g := qgen.New(seed)
		src := g.Query()
		nat, ref := nativePair(t, src, qgen.Catalog())
		driveParity(t, nat, ref, g.Trace(48), 6, fmt.Sprintf("seed %d %q", seed, src))
	}
}

// TestNativeBakeoffQueries runs the bakeoff's SSB and new-construct
// queries (AVG, EXISTS, LEFT OUTER JOIN) through the native engine over
// generated workloads with deletes, requiring snapshot parity.
func TestNativeBakeoffQueries(t *testing.T) {
	skipWithoutToolchain(t)
	warehouse := tpch.NewGenerator(7, 2).Workload(300)
	financial := orderbook.NewGenerator(7, 60).Events(300)
	cases := []struct {
		name string
		src  string
		cat  *schema.Catalog
		evs  []stream.Event
	}{
		{"ssb-4.1", tpch.QuerySSB41, tpch.Catalog(), warehouse},
		{"ssb-1.1", tpch.QuerySSB11, tpch.Catalog(), warehouse},
		{"load-monitor", tpch.QueryLoadMonitor, tpch.Catalog(), warehouse},
		{"dim-coverage-loj", tpch.QueryDimCoverage, tpch.Catalog(), warehouse},
		{"broker-avg-price", orderbook.QueryBrokerAvgPrice, orderbook.Catalog(), financial},
		{"two-sided-volume-exists", orderbook.QueryTwoSidedVolume, orderbook.Catalog(), financial},
		{"bid-ask-coverage-loj", orderbook.QueryBidAskSpreadCover, orderbook.Catalog(), financial},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nat, ref := nativePair(t, tc.src, tc.cat)
			driveParity(t, nat, ref, tc.evs, 50, tc.name)
		})
	}
}

// TestNativeFloatEdges exercises the float normalization fixes: scalar
// division with zero divisors must propagate NaN-as-NULL exactly like the
// interpreter's boxed arithmetic (the NaN-valued term contributes
// nothing and poisons nothing), for both int/int (truncating) and float
// division.
func TestNativeFloatEdges(t *testing.T) {
	skipWithoutToolchain(t)
	cat := schema.NewCatalog(
		schema.NewRelation("bids", "price:float", "volume:float"),
		schema.NewRelation("R", "A:int", "B:int"),
	)
	t.Run("float-div", func(t *testing.T) {
		nat, ref := nativePair(t, "select sum(price/volume) from bids", cat)
		evs := []stream.Event{
			{Relation: "bids", Op: stream.Insert, Args: types.Tuple{types.NewFloat(10), types.NewFloat(4)}},
			{Relation: "bids", Op: stream.Insert, Args: types.Tuple{types.NewFloat(3), types.NewFloat(0)}}, // NULL term
			{Relation: "bids", Op: stream.Insert, Args: types.Tuple{types.NewFloat(-2.5), types.NewFloat(2)}},
			{Relation: "bids", Op: stream.Delete, Args: types.Tuple{types.NewFloat(10), types.NewFloat(4)}},
			{Relation: "bids", Op: stream.Delete, Args: types.Tuple{types.NewFloat(3), types.NewFloat(0)}},
		}
		driveParity(t, nat, ref, evs, 1, "float-div")
	})
	t.Run("int-div-truncates", func(t *testing.T) {
		nat, ref := nativePair(t, "select sum(A/B) from R", cat)
		evs := []stream.Event{
			{Relation: "R", Op: stream.Insert, Args: types.Tuple{types.NewInt(7), types.NewInt(2)}},  // 3, not 3.5
			{Relation: "R", Op: stream.Insert, Args: types.Tuple{types.NewInt(-7), types.NewInt(2)}}, // -3 (Go truncation)
			{Relation: "R", Op: stream.Insert, Args: types.Tuple{types.NewInt(5), types.NewInt(0)}},  // NULL term
			{Relation: "R", Op: stream.Delete, Args: types.Tuple{types.NewInt(7), types.NewInt(2)}},
		}
		driveParity(t, nat, ref, evs, 1, "int-div")
	})
}

// TestNativeMixedKeyArities pins the key-struct emission for wide mixed
// string/int/float group keys (arities 3 and 4), including retention when
// a group's aggregate returns to zero and snapshot iteration order.
func TestNativeMixedKeyArities(t *testing.T) {
	skipWithoutToolchain(t)
	cat := schema.NewCatalog(
		schema.NewRelation("wide", "a:string", "b:int", "c:float", "d:string", "v:int"),
	)
	ev := func(op stream.Op, a string, b int64, c float64, d string, v int64) stream.Event {
		return stream.Event{Relation: "wide", Op: op, Args: types.Tuple{
			types.NewString(a), types.NewInt(b), types.NewFloat(c), types.NewString(d), types.NewInt(v),
		}}
	}
	evs := []stream.Event{
		ev(stream.Insert, "x", 1, 1.5, "p", 10),
		ev(stream.Insert, "x", 1, 1.5, "p", 5),
		ev(stream.Insert, "y", 2, -3.25, "q", 7),
		ev(stream.Insert, "", 0, 0, "", 1), // zero-valued key fields are legal keys
		ev(stream.Delete, "x", 1, 1.5, "p", 10),
		ev(stream.Delete, "x", 1, 1.5, "p", 5), // group sum returns to zero -> entry must vanish
		ev(stream.Insert, "y", 2, -3.25, "q", -7),
	}
	for _, src := range []string{
		"select a, b, c, sum(v) from wide group by a, b, c",
		"select a, b, c, d, sum(v), count(*) from wide group by a, b, c, d",
	} {
		nat, ref := nativePair(t, src, cat)
		driveParity(t, nat, ref, evs, 1, src)
	}
}

// TestNativeStateRestore round-trips a checkpoint: snapshot the native
// engine mid-stream, restore into a *fresh* native engine, finish the
// stream on both, and require parity with the closure engine.
func TestNativeStateRestore(t *testing.T) {
	skipWithoutToolchain(t)
	src := tpch.QuerySSB41
	evs := tpch.NewGenerator(11, 2).Workload(200)
	half := len(evs) / 2

	nat, ref := nativePair(t, src, tpch.Catalog())
	for _, ev := range evs[:half] {
		if err := nat.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := ref.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := nat.StateSnapshot(&snap, 42); err != nil {
		t.Fatal(err)
	}

	q, err := Prepare(src, tpch.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	nat2, err := NewNativeToaster(q)
	if err != nil {
		t.Fatal(err)
	}
	defer nat2.Close()
	wm, err := nat2.StateRestore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if wm != 42 {
		t.Fatalf("watermark %d, want 42", wm)
	}
	driveParity(t, nat2, ref, evs[half:], 25, "post-restore")
}

// TestNativeBatchParity drives the batched entry point (the pipelined
// path the bakeoff uses) and checks it matches per-event feeding.
func TestNativeBatchParity(t *testing.T) {
	skipWithoutToolchain(t)
	g := qgen.New(4242)
	src := g.Query()
	evs := g.Trace(60)
	nat, ref := nativePair(t, src, qgen.Catalog())
	for _, chunk := range stream.Batches(evs, 16) {
		if err := nat.OnEventBatch(chunk); err != nil {
			t.Fatalf("native batch: %v", err)
		}
		if err := ref.OnEventBatch(chunk); err != nil {
			t.Fatalf("reference batch: %v", err)
		}
	}
	want, err := ref.Results()
	if err != nil {
		t.Fatal(err)
	}
	got, err := nat.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("batched native disagrees\nreference:\n%s\nnative:\n%s", want, got)
	}
	requireSnapshotEqual(t, nat, ref, "batched")
}

// TestNativeChildFailureSticky kills the child mid-stream: the failure
// surfaces at the next barrier as a returned error, and every later
// barrier reports it again instead of serving stale shadow state.
func TestNativeChildFailureSticky(t *testing.T) {
	skipWithoutToolchain(t)
	nat, _ := nativePair(t, "select B, sum(A) from R group by B", testCatalog())
	ev := stream.Event{Op: stream.Insert, Relation: "R",
		Args: types.Tuple{types.NewInt(1), types.NewInt(1)}}
	if err := nat.OnEvent(ev); err != nil {
		t.Fatal(err)
	}
	if err := nat.Flush(); err != nil {
		t.Fatalf("flush before kill: %v", err)
	}
	if err := nat.child.Kill(); err != nil {
		t.Fatal(err)
	}
	// The write may land in the pipe buffer; the barrier must fail.
	if err := nat.OnEvent(ev); err == nil {
		err = nat.Flush()
		if err == nil {
			t.Fatal("barrier after child kill returned no error")
		}
	}
	if _, err := nat.Results(); err == nil {
		t.Fatal("child failure was not sticky: Results succeeded")
	}
	if err := nat.OnEvent(ev); err == nil {
		t.Fatal("child failure was not sticky: OnEvent succeeded")
	}
}

// TestNativeTimeoutEnv checks the DBT_NATIVE_TIMEOUT fallback resolution
// order: explicit option, env var, 5s default.
func TestNativeTimeoutEnv(t *testing.T) {
	if d := (native.ProcOptions{Timeout: time.Second}).DefaultTimeout(); d != time.Second {
		t.Fatalf("explicit timeout resolved to %s", d)
	}
	os.Setenv("DBT_NATIVE_TIMEOUT", "250ms")
	defer os.Unsetenv("DBT_NATIVE_TIMEOUT")
	if d := (native.ProcOptions{}).DefaultTimeout(); d != 250*time.Millisecond {
		t.Fatalf("env timeout resolved to %s", d)
	}
	os.Setenv("DBT_NATIVE_TIMEOUT", "garbage")
	if d := (native.ProcOptions{}).DefaultTimeout(); d != 5*time.Second {
		t.Fatalf("invalid env should fall back to 5s, got %s", d)
	}
}

// TestNativeAdmissionErrors mirrors the interpreter's admission contract:
// unknown relations error, kind-checked columns reject wrong kinds, and
// relations without triggers are ignored.
func TestNativeAdmissionErrors(t *testing.T) {
	skipWithoutToolchain(t)
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
	)
	nat, _ := nativePair(t, "select sum(A) from R", cat)
	if err := nat.OnEvent(stream.Event{Relation: "nope", Op: stream.Insert, Args: types.Tuple{types.NewInt(1)}}); err == nil {
		t.Fatal("expected unknown-relation error")
	}
	// S is in the catalog but not in the query: silently ignored.
	if err := nat.OnEvent(stream.Event{Relation: "S", Op: stream.Insert, Args: types.Tuple{types.NewInt(1), types.NewInt(2)}}); err != nil {
		t.Fatalf("untracked relation should be ignored, got %v", err)
	}
	if err := nat.OnEvent(stream.Event{Relation: "R", Op: stream.Insert, Args: types.Tuple{types.NewString("x"), types.NewInt(2)}}); err == nil {
		t.Fatal("expected kind-mismatch error")
	}
	// The engine stays usable after admission errors.
	if err := nat.OnEvent(stream.Event{Relation: "R", Op: stream.Insert, Args: types.Tuple{types.NewInt(3), types.NewInt(4)}}); err != nil {
		t.Fatalf("engine unusable after admission error: %v", err)
	}
	res, err := nat.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 3 {
		t.Fatalf("unexpected result %s", res)
	}
}
