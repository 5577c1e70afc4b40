package engine

import (
	"testing"

	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
)

// TestRegistryBatchedSharingMatchesPerEvent: with map sharing on, feeding
// the registry through OnEventBatch must leave every live query exactly
// where per-event fan-out leaves it. The borrower here (the LEFT OUTER
// JOIN spread query) adopts the owner's per-broker ask volume map, so a
// fan-out that runs each engine over the whole batch in turn hands the
// borrower a map that is out of step with the event it is applying.
func TestRegistryBatchedSharingMatchesPerEvent(t *testing.T) {
	queries := []struct{ name, sql string }{
		{"owner", orderbook.QueryBrokerNetAsk},
		{"borrower", orderbook.QueryBidAskSpreadCover},
		{"exists", orderbook.QueryTwoSidedVolume},
		{"bids", orderbook.QueryBrokerActivity},
	}
	build := func(sharing bool) *Registry {
		r := NewRegistry(sharing)
		for _, q := range queries {
			if err := r.Begin(q.name, q.sql); err != nil {
				t.Fatal(err)
			}
			pq, err := Prepare(q.sql, orderbook.Catalog())
			if err != nil {
				t.Fatalf("Prepare(%q): %v", q.sql, err)
			}
			tmp, err := NewToaster(pq, runtime.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Install(q.name, pq, tmp, 0, runtime.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	events := orderbook.NewGenerator(1, 200).Events(4000)

	perEvent := build(true)
	if len(infoOf(t, perEvent, "borrower").Shared) == 0 {
		t.Fatal("borrower adopted no shared map; the test would not exercise sharing")
	}
	for _, ev := range events {
		if err := perEvent.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	unshared := build(false)
	batched := build(true)
	for _, chunk := range stream.Batches(events, 16) {
		if err := unshared.OnEventBatch(chunk); err != nil {
			t.Fatal(err)
		}
		if err := batched.OnEventBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		want := resultOf(t, perEvent, q.name)
		for label, r := range map[string]*Registry{"sharing off": unshared, "sharing on": batched} {
			if got := resultOf(t, r, q.name); !want.Equal(got) {
				t.Errorf("%s batched (%s) diverges from per-event fan-out\nwant:\n%s\ngot:\n%s", q.name, label, want, got)
			}
		}
	}
}

func resultOf(t *testing.T, r *Registry, name string) *Result {
	t.Helper()
	eng, ok := r.Get(name)
	if !ok {
		t.Fatalf("query %q not live", name)
	}
	res, err := eng.Results()
	if err != nil {
		t.Fatalf("%s results: %v", name, err)
	}
	return res
}
