package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/tpch"
)

// query is one standing query: the first of a workload boots the server
// (registered there as "main"), the rest arrive by REGISTER.
type query struct {
	name     string
	sql      string
	template string // tenants: the template the instance came from; else the name
}

// workload fixes everything a run sends except the seed, which only
// changes the generated events.
type workload struct {
	name    string
	why     string
	catalog string // dbtserver -catalog
	cat     *schema.Catalog
	queries []query

	batch     int // events per producer request (1 = one INSERT/DELETE line)
	producers int
	walSync   bool
	ckptEvery uint64 // dbtserver -checkpoint-every (0 = off)

	// Reads: with readEvery 0 a second connection polls polled[0] after a
	// fixed think time, contending with the committer; otherwise each
	// producer sends RESULT for the next polled query after every
	// readEvery of its own requests, between its own writes.
	polled    []string
	think     time.Duration
	readEvery int

	// Input: facts > 0 sends a fixed warehouse load (dimensions, then that
	// many facts) per round to a fresh server; otherwise the timed phase
	// runs for --seconds over an order-book stream generated up to
	// capPerSecond events per second of run time.
	facts        int
	capPerSecond int
	tailEvents   int // post-checkpoint tail replayed by the recovery check
	setups       int // server starts measured for setup_s (per round on the fixed input)
	recoveries   int // restarts measured for recovery_s (per round on the fixed input)
}

func (w *workload) fixedInput() bool { return w.facts > 0 }

// Financial demo queries registered on ticks; broker activity boots the
// server and is the one the reader polls.
var tickQueries = []query{
	{name: "brokers", sql: orderbook.QueryBrokerActivity},
	{name: "vwap", sql: orderbook.QueryVWAPThreshold},
	{name: "avgprice", sql: orderbook.QueryBrokerAvgPrice},
	{name: "twosided", sql: orderbook.QueryTwoSidedVolume},
	{name: "bidask", sql: orderbook.QueryBidAskSpreadCover},
}

var warehouseQueries = []query{
	{name: "ssb41", sql: tpch.QuerySSB41},
	{name: "ssb11", sql: tpch.QuerySSB11},
	{name: "loadmon", sql: tpch.QueryLoadMonitor},
	{name: "dimcov", sql: tpch.QueryDimCoverage},
}

// tenantQueries builds the 100 tenant queries: every order-book demo
// query once, then parameterised templates whose parameters repeat, so
// identical instances can share maps through the registry's pool.
func tenantQueries() []query {
	demo := []query{
		{name: "vwap", sql: orderbook.QueryVWAPThreshold},
		{name: "bidturnover", sql: orderbook.QueryBidTurnover},
		{name: "biddepth", sql: orderbook.QueryBidDepth},
		{name: "askturnover", sql: orderbook.QueryAskTurnover},
		{name: "askdepth", sql: orderbook.QueryAskDepth},
		{name: "brokers", sql: orderbook.QueryBrokerActivity},
		{name: "netbid", sql: orderbook.QueryBrokerNetBid},
		{name: "netask", sql: orderbook.QueryBrokerNetAsk},
		{name: "avgprice", sql: orderbook.QueryBrokerAvgPrice},
		{name: "twosided", sql: orderbook.QueryTwoSidedVolume},
		{name: "bidask", sql: orderbook.QueryBidAskSpreadCover},
	}
	templates := []struct {
		name   string
		format string
		params []int
	}{
		{"bidsabove", "select broker, sum(volume) from bids where price > %d group by broker", []int{90, 95, 100, 105, 110}},
		{"askbroker", "select sum(price * volume) from asks where broker = %d", []int{0, 3, 6, 9, 12, 15, 18, 19}},
		{"bigbids", "select count(*) from bids where volume >= %d", []int{10, 20, 30, 40}},
		{"asksbelow", "select broker, count(*), sum(price * volume) from asks where price < %d group by broker", []int{92, 97, 102, 107, 112}},
	}
	out := append(make([]query, 0, 100), demo...)
	for i := 0; len(out) < 100; i++ {
		t := templates[i%len(templates)]
		p := t.params[(i/len(templates))%len(t.params)]
		out = append(out, query{
			name:     fmt.Sprintf("t%02d_%s_%d", i, t.name, p),
			sql:      fmt.Sprintf(t.format, p),
			template: t.name,
		})
	}
	return standing(out)
}

func workloads() []*workload {
	tenants := tenantQueries()
	names := make([]string, len(tenants))
	for i, q := range tenants {
		names[i] = q.name
	}
	return []*workload{
		{
			name:         "ticks",
			why:          "one order-book delta per INSERT/DELETE, 1 closed-loop producer beside a RESULT poller: per-request overhead dominates and reads contend with the committer",
			catalog:      "orderbook",
			cat:          orderbook.Catalog(),
			queries:      standing(tickQueries),
			batch:        1,
			producers:    1,
			polled:       []string{"main"}, // broker activity
			think:        time.Millisecond,
			capPerSecond: 60000,
			tailEvents:   2000,
			setups:       15,
			recoveries:   9,
		},
		{
			name:       "bulk-load",
			why:        "SSB warehouse load (fixed dimensions, 100000 seeded facts, ~5% corrections) as BATCH 64 from 1 producer, rounds of fixed size: trigger apply, above all SSB4.1, sets the rate",
			catalog:    "tpch",
			cat:        tpch.Catalog(),
			queries:    standing(warehouseQueries),
			batch:      64,
			producers:  1,
			polled:     []string{"loadmon"},
			readEvery:  2,
			facts:      100000,
			setups:     3,
			recoveries: 1,
		},
		{
			name:         "tenants",
			why:          "100 standing queries fed BATCH 16 from 2 producers with -wal-sync and auto checkpoints: registry fan-out and per-group fsync dominate; restart recovers",
			catalog:      "orderbook",
			cat:          orderbook.Catalog(),
			queries:      tenants,
			batch:        16,
			producers:    2,
			walSync:      true,
			ckptEvery:    30000,
			polled:       names,
			readEvery:    8,
			capPerSecond: 60000,
			tailEvents:   4000,
			setups:       3,
			recoveries:   3,
		},
	}
}

// standing fills in each query's template (its own name unless set) and
// renames the first query "main", the name dbtserver gives its boot query.
func standing(qs []query) []query {
	out := append([]query(nil), qs...)
	for i := range out {
		if out[i].template == "" {
			out[i].template = out[i].name
		}
	}
	out[0].name = "main"
	return out
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// reqStream holds one producer's requests as the exact protocol bytes,
// back to back, so tens of thousands of requests cost no per-event heap
// objects.
type reqStream struct {
	buf  []byte
	ends []int
	nev  []int
}

func (s *reqStream) len() int { return len(s.ends) }

func (s *reqStream) get(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.buf[start:s.ends[i]]
}

// packer deals generated events to producers and packs each producer's
// events into requests.
type packer struct {
	batch   int
	key     func(stream.Event) uint64
	conns   []*reqStream
	pending [][]byte // per producer: event lines of the open request
	count   []int
}

func newPacker(producers, batch int, key func(stream.Event) uint64) *packer {
	pk := &packer{batch: batch, key: key, pending: make([][]byte, producers), count: make([]int, producers)}
	for i := 0; i < producers; i++ {
		pk.conns = append(pk.conns, &reqStream{})
	}
	return pk
}

// connOf routes an event by its causal key, so every event of one order
// (or one warehouse fact and its corrections) rides one connection, in
// generator order.
func connOf(ev stream.Event, producers int, key func(stream.Event) uint64) int {
	return int(key(ev) % uint64(producers))
}

func (pk *packer) add(ev stream.Event) {
	p := connOf(ev, len(pk.conns), pk.key)
	pk.pending[p] = appendEventLine(pk.pending[p], ev)
	pk.count[p]++
	if pk.count[p] == pk.batch {
		pk.flush(p)
	}
}

// flush closes producer p's open request, if any.
func (pk *packer) flush(p int) {
	n := pk.count[p]
	if n == 0 {
		return
	}
	s := pk.conns[p]
	if pk.batch > 1 {
		s.buf = fmt.Appendf(s.buf, "BATCH %d\n", n)
	}
	s.buf = append(s.buf, pk.pending[p]...)
	s.ends = append(s.ends, len(s.buf))
	s.nev = append(s.nev, n)
	pk.pending[p] = pk.pending[p][:0]
	pk.count[p] = 0
}

func (pk *packer) flushAll() {
	for p := range pk.conns {
		pk.flush(p)
	}
}

// appendEventLine renders one delta the way server.Client does.
func appendEventLine(dst []byte, ev stream.Event) []byte {
	if ev.Op == stream.Delete {
		dst = append(dst, "DELETE "...)
	} else {
		dst = append(dst, "INSERT "...)
	}
	dst = append(dst, ev.Relation...)
	dst = append(dst, ' ')
	for i, v := range ev.Args {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, v.String()...)
	}
	return append(dst, '\n')
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// orderKey is an order-book event's causal key: its order id. An order's
// insert, modify (delete+insert) and cancel must stay in generator order.
func orderKey(ev stream.Event) uint64 { return mix(uint64(ev.Args[0].Int())) }

// warehouseKey keys a lineorder fact by every column but revenue, the one
// a correction rewrites, so a correction's delete and re-insert follow the
// fact's original insert. Dimension rows key on their primary key.
func warehouseKey(ev stream.Event) uint64 {
	if ev.Relation != "lineorder" {
		return mix(uint64(ev.Args[0].Int()))
	}
	h := fnv.New64a()
	for i, v := range ev.Args {
		if i == 5 {
			continue
		}
		h.Write([]byte(v.String()))
		h.Write([]byte{'|'})
	}
	return h.Sum64()
}

// input is what a run sends: per-producer request streams plus, for the
// fixed warehouse input, the request after which to checkpoint.
type input struct {
	conns  []*reqStream
	ckptAt int // fixed input: checkpoint after this many requests of producer 0
}

// warehouseDimSeed draws the warehouse's dimension tables, the same on
// every run; the seed drives the fact stream and its corrections. At scale
// 2 the dimensions hold only 60 customers, 20 suppliers and 80 parts, so
// drawing them per seed moves the share of key combinations SSB4.1's
// filters pass from 0.6% to 2.7% over seeds 1-10, and every bulk-load
// figure with it. Draw 1 passes 1.65%, close to the expected
// 0.2 * 0.2 * 0.4 = 1.6%.
const warehouseDimSeed = 1

// buildInput generates a run's requests from the seed. Order-book
// workloads get up to maxEvents events (the timed phase stops when time
// runs out, and the unsent rest supplies the recovery tail); the warehouse
// workload gets its fixed load.
func buildInput(w *workload, seed int64, maxEvents int) *input {
	if w.fixedInput() {
		pk := newPacker(w.producers, w.batch, warehouseKey)
		events := tpch.NewGenerator(warehouseDimSeed, 2).DimensionEvents()
		events = append(events, tpch.NewGenerator(seed, 2).FactEvents(w.facts)...)
		for _, ev := range events {
			pk.add(ev)
		}
		pk.flushAll()
		return &input{conns: pk.conns, ckptAt: pk.conns[0].len() / 2}
	}
	pk := newPacker(w.producers, w.batch, orderKey)
	g := orderbook.NewGenerator(seed, 500)
	for n := 0; n < maxEvents; {
		for _, ev := range g.Next() {
			pk.add(ev)
			n++
		}
	}
	return &input{conns: pk.conns}
}

// eventLines splits one request's bytes into its delta lines (dropping a
// BATCH header).
func eventLines(req []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(req), "\n"), "\n")
	if strings.HasPrefix(lines[0], "BATCH ") {
		lines = lines[1:]
	}
	return lines
}

// splitEventLine splits "INSERT rel v1|v2|..." into its parts.
func splitEventLine(line string) (op stream.Op, rel, vals string) {
	cmd, rest, _ := strings.Cut(line, " ")
	rel, vals, _ = strings.Cut(rest, " ")
	op = stream.Insert
	if cmd == "DELETE" {
		op = stream.Delete
	}
	return op, rel, vals
}
