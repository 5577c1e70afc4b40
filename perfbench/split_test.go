package main

import (
	"testing"

	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/tpch"
)

// deleteBeforeInsert counts, per connection, DELETEs of a row that has no
// live INSERT on that connection yet — what a server reading the
// connections in any interleaving could see first.
func deleteBeforeInsert(conns [][]string) int {
	bad := 0
	for _, lines := range conns {
		live := map[string]int{}
		for _, l := range lines {
			op, rel, vals := splitEventLine(l)
			k := rel + " " + vals
			if op == stream.Insert {
				live[k]++
			} else if live[k] == 0 {
				bad++
			} else {
				live[k]--
			}
		}
	}
	return bad
}

func connLines(in *input) [][]string {
	out := make([][]string, len(in.conns))
	for p, s := range in.conns {
		for i := 0; i < s.len(); i++ {
			out[p] = append(out[p], eventLines(s.get(i))...)
		}
	}
	return out
}

// roundRobin deals lines to n connections in turn, the split that breaks
// causality.
func roundRobin(evs []stream.Event, n int) [][]string {
	out := make([][]string, n)
	for i, ev := range evs {
		line := string(appendEventLine(nil, ev))
		out[i%n] = append(out[i%n], line[:len(line)-1])
	}
	return out
}

func TestOrderBookSplitKeepsCausality(t *testing.T) {
	w := &workload{producers: 2, batch: 16}
	in := buildInput(w, 7, 20000)
	conns := connLines(in)

	// Every order id rides exactly one connection, and each connection
	// carries its orders' events in generator order.
	var gen []stream.Event
	g := orderbook.NewGenerator(7, 500)
	for len(gen) < 20000 {
		gen = append(gen, g.Next()...)
	}
	want := make([][]string, 2)
	for _, ev := range gen {
		line := string(appendEventLine(nil, ev))
		p := connOf(ev, 2, orderKey)
		want[p] = append(want[p], line[:len(line)-1])
	}
	for p := range conns {
		if len(conns[p]) > len(want[p]) {
			t.Fatalf("connection %d carries %d events, generator routed %d", p, len(conns[p]), len(want[p]))
		}
		for i, l := range conns[p] {
			if l != want[p][i] {
				t.Fatalf("connection %d event %d = %q, want %q (generator order)", p, i, l, want[p][i])
			}
		}
	}
	if len(conns[0]) == 0 || len(conns[1]) == 0 {
		t.Fatal("split left a connection empty")
	}
	if bad := deleteBeforeInsert(conns); bad != 0 {
		t.Fatalf("%d deletes precede their insert on the same connection", bad)
	}
	// The stream really has cross-event dependencies: a round-robin split
	// of the same events breaks them.
	if bad := deleteBeforeInsert(roundRobin(gen, 2)); bad == 0 {
		t.Fatal("round-robin split kept causality; the test input has no dependent events")
	}
}

func TestWarehouseSplitKeepsCorrectionPairs(t *testing.T) {
	w := &workload{producers: 2, batch: 64, facts: 20000}
	in := buildInput(w, 3, 0)
	conns := connLines(in)
	if len(conns[0]) == 0 || len(conns[1]) == 0 {
		t.Fatal("split left a connection empty")
	}
	if bad := deleteBeforeInsert(conns); bad != 0 {
		t.Fatalf("%d corrections retract a fact not yet inserted on their connection", bad)
	}
	total := len(conns[0]) + len(conns[1])
	if evs := tpch.NewGenerator(3, 2).Workload(20000); total != len(evs) {
		t.Fatalf("split carries %d events, generator made %d", total, len(evs))
	} else if bad := deleteBeforeInsert(roundRobin(evs, 2)); bad == 0 {
		t.Fatal("round-robin split kept every correction pair; the test input has none")
	}
}
