package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// TestShardedDifferentialProperty is the engines' correctness net: ≥100
// random query/stream pairs (reusing the random-query generator from
// fuzz_test.go) driven through Toaster, Naive, and FirstOrderIVM, with
// delete-heavy and update (delete/insert pair) phases, requiring exact
// Result agreement mid-stream and at the end. The name dates from when
// the test also drove the removed sharded runtime.
func TestShardedDifferentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const pairs = 100
	for trial := 0; trial < pairs; trial++ {
		r := rand.New(rand.NewSource(int64(4000 + trial)))
		cat, src := randomQuery(r)
		t.Run(fmt.Sprintf("pair%d", trial), func(t *testing.T) {
			q, err := Prepare(src, cat)
			if err != nil {
				t.Fatalf("prepare %q: %v", src, err)
			}
			toaster, err := NewToaster(q, runtime.Options{})
			if err != nil {
				t.Fatalf("toaster %q: %v", src, err)
			}
			engines := []Engine{toaster, NewNaive(q), NewIVM(q)}
			// Batch-fed twin: the same stream delivered through
			// OnEventBatch (in uneven chunks) must agree exactly with the
			// per-event path.
			batchToaster, err := NewToaster(q, runtime.Options{})
			if err != nil {
				t.Fatalf("batch toaster %q: %v", src, err)
			}
			batched := []Engine{batchToaster}
			var pending []stream.Event
			flushBatched := func() {
				for _, chunk := range stream.Batches(pending, 7) {
					for _, e := range batched {
						if err := e.OnEventBatch(chunk); err != nil {
							t.Fatalf("%q: %s OnEventBatch: %v", src, e.Name(), err)
						}
					}
				}
				pending = pending[:0]
			}

			feed := func(ev stream.Event) {
				for _, e := range engines {
					if err := e.OnEvent(ev); err != nil {
						t.Fatalf("%q: %s OnEvent(%s): %v", src, e.Name(), ev, err)
					}
				}
				pending = append(pending, ev)
			}
			randTuple := func() types.Tuple {
				return types.Tuple{types.NewInt(int64(r.Intn(5))), types.NewInt(int64(r.Intn(5)))}
			}
			relOf := func() string { return fmt.Sprintf("F%d", r.Intn(3)) }

			var live []stream.Event
			// Phase 1: insert-leaning mixed stream.
			for i := 0; i < 60; i++ {
				if len(live) > 0 && r.Intn(4) == 0 {
					idx := r.Intn(len(live))
					old := live[idx]
					live = append(live[:idx], live[idx+1:]...)
					feed(stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
				} else {
					ev := stream.Event{Op: stream.Insert, Relation: relOf(), Args: randTuple()}
					live = append(live, ev)
					feed(ev)
				}
			}
			all := append(append([]Engine{}, engines...), batched...)
			flushBatched()
			requireAgreement(t, all, src+" after inserts")
			// Phase 2: update workload — in-place tuple updates expand to
			// delete/insert pairs via stream.Update.
			for i := 0; i < 30 && len(live) > 0; i++ {
				idx := r.Intn(len(live))
				old := live[idx]
				pair := stream.Update(old.Relation, old.Args, randTuple())
				live[idx] = stream.Event{Op: stream.Insert, Relation: old.Relation, Args: pair[1].Args}
				feed(pair[0])
				feed(pair[1])
			}
			flushBatched()
			requireAgreement(t, all, src+" after updates")
			// Phase 3: delete-heavy drain.
			for len(live) > 0 {
				idx := r.Intn(len(live))
				old := live[idx]
				live = append(live[:idx], live[idx+1:]...)
				feed(stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
			}
			flushBatched()
			requireAgreement(t, all, src+" after drain")
		})
	}
}

func TestResultStringAlignsColumns(t *testing.T) {
	res := &Result{
		Columns: []string{"region", "s", "long_column"},
		Rows: []types.Tuple{
			{types.NewString("east"), types.NewInt(1234567), types.NewInt(1)},
			{types.NewString("w"), types.NewInt(3), types.NewInt(42)},
		},
	}
	got := res.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d\n%s", len(lines), got)
	}
	// Every separator must sit at the same byte offset in every line.
	idx := func(s string) []int {
		var out []int
		for i := 0; i+2 < len(s); i++ {
			if s[i:i+3] == " | " {
				out = append(out, i)
			}
		}
		return out
	}
	ref := idx(lines[0])
	if len(ref) != 2 {
		t.Fatalf("header separators = %v\n%s", ref, got)
	}
	for _, ln := range lines[1:] {
		cur := idx(ln)
		if len(cur) != len(ref) {
			t.Fatalf("separator count mismatch: %v vs %v\n%s", cur, ref, got)
		}
		for i := range ref {
			if cur[i] != ref[i] {
				t.Errorf("misaligned column %d: offset %d vs %d\n%s", i, cur[i], ref[i], got)
			}
		}
	}
	// Cells wider than their header stretch the column.
	if !strings.Contains(lines[0], "region | s       | long_column") {
		t.Errorf("header = %q", lines[0])
	}
}
