package engine

import (
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// The tests in this file keep the names they had when they also drove the
// (since removed) sharded runtime; they now check the single-threaded
// Toaster, and that its OnEventBatch matches OnEvent.

// TestShardedToasterDirect exercises the Toaster's accessors and a
// group-by result end to end.
func TestShardedToasterDirect(t *testing.T) {
	q, err := Prepare("select B, sum(A) from R group by B", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewToaster(q, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "dbtoaster" {
		t.Errorf("name = %q", e.Name())
	}
	if e.Compiled() == nil || e.Runtime() == nil {
		t.Error("accessors broken")
	}
	for i := 0; i < 100; i++ {
		if err := e.OnEvent(stream.Ins("R", types.NewInt(int64(i)), types.NewInt(int64(i%7)))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("rows = %d, want 7\n%s", len(res.Rows), res)
	}
	if e.MemEntries() == 0 {
		t.Error("no entries after inserts")
	}
}

// batchFuzzQueries spans grouped, joined, scalar and min (sorted-map)
// aggregates.
var batchFuzzQueries = []string{
	"select B, sum(A) from R group by B",
	"select R.B, sum(R.A*S.C) from R, S where R.B = S.B group by R.B",
	"select S.C, sum(R.A) from R, S where R.B = S.B group by S.C",
	"select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C",
	"select B, min(A), count(*) from R group by B",
}

// FuzzShardedAgreement fuzzes the event order and event mix of a stream,
// feeds it per event to a Toaster oracle, replays it through OnEventBatch
// on a second Toaster (chunk size fuzzed from byte 0), and requires exact
// Result agreement.
//
// Input layout: byte 0 → batch chunk size, byte 1 → query index, then 3
// bytes per event: [op/relation selector, column values...]. An odd
// selector deletes a previously inserted tuple (chosen by the same byte),
// keeping streams well-formed so both engines see valid deltas.
func FuzzShardedAgreement(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 2, 0, 3, 4, 1, 1, 2})
	f.Add([]byte{8, 1, 0, 1, 1, 2, 1, 1, 4, 2, 2, 6, 3, 3})
	f.Add([]byte{1, 3, 0, 0, 0, 2, 1, 1, 4, 2, 2, 3, 0, 0, 5, 1, 2})
	f.Add([]byte{5, 4, 0, 2, 2, 1, 2, 2, 0, 2, 2, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		chunk := 1 + int(data[0])%5
		src := batchFuzzQueries[int(data[1])%len(batchFuzzQueries)]
		data = data[2:]

		q, err := Prepare(src, testCatalog())
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		oracle, err := NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatalf("toaster: %v", err)
		}

		rels := []string{"R", "S", "T"}
		var history []stream.Event
		var replay []stream.Event
		for len(data) >= 3 {
			sel, a, b := data[0], data[1], data[2]
			data = data[3:]
			var ev stream.Event
			if sel%2 == 1 && len(history) > 0 {
				old := history[int(sel)%len(history)]
				ev = stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args}
			} else {
				ev = stream.Event{Op: stream.Insert, Relation: rels[int(sel/2)%3], Args: types.Tuple{
					types.NewInt(int64(a % 8)), types.NewInt(int64(b % 8)),
				}}
				history = append(history, ev)
			}
			if err := oracle.OnEvent(ev); err != nil {
				t.Fatalf("oracle OnEvent(%s): %v", ev, err)
			}
			replay = append(replay, ev)
		}
		want, err := oracle.Results()
		if err != nil {
			t.Fatalf("oracle results: %v", err)
		}

		bt, err := NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatalf("batch toaster: %v", err)
		}
		for _, c := range stream.Batches(replay, chunk) {
			if err := bt.OnEventBatch(c); err != nil {
				t.Fatalf("toaster OnEventBatch: %v", err)
			}
		}
		got, err := bt.Results()
		if err != nil {
			t.Fatalf("batched results: %v", err)
		}
		if !want.Equal(got) {
			t.Fatalf("%q batched (chunk %d) disagrees with oracle\nwant:\n%s\ngot:\n%s",
				src, chunk, want, got)
		}
	})
}
