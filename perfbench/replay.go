package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/wal"
)

// replayOp is one step of the live run in server order: a producer
// request, or (req == nil) an explicit CHECKPOINT.
type replayOp struct {
	req    []byte
	client int64 // its live client span's duration in ns; 0 without one
	group  int   // requests with one group id were one live commit group
}

// replayStats is what the replay reports besides its spans.
type replayStats struct {
	metrics  map[string]float64
	details  []string
	problems []string // recovered state that differs from the replayed state
}

// unsampledSyncEvery spaces the off-path fsync samples taken on workloads
// whose server does not fsync, so wal.sync_us_per_group is still measured
// without charging fsync to their request path.
const unsampledSyncEvery = 64

// replayer re-executes a live run in process. Every call into a layer is
// a span in tr.
type replayer struct {
	w    *workload
	tr   *tracer
	m    *wal.Manager
	reg  *engine.Registry
	sink *metrics.Sink

	parsed    [][]stream.Event // per request, server order
	parseSpan []int            // per request: its parse span
	groupSpan []int            // per request: its commit group's span
	events    int
	groups    int
	polls     int
}

// replay re-executes the live request sequence in process through the
// public entry points of each layer, in the server's order (parse → WAL
// encode/append/sync → registry fan-out, checkpoints where the server
// took them), then recovers from its own WAL, then applies the same
// requests to one standalone engine per distinct query.
func replay(w *workload, ops []replayOp, dir string, reads int, tr *tracer) (*replayStats, error) {
	walDir := filepath.Join(dir, "wal")
	rp := &replayer{w: w, tr: tr, sink: metrics.New()}
	var err error
	if rp.m, err = wal.Open(walDir, wal.Options{Stats: rp.sink.WAL()}); err != nil {
		return nil, err
	}
	defer rp.m.Close() // error paths; success closes it before recovery
	if err := rp.register(); err != nil {
		return nil, err
	}
	ws := rp.sink.WAL()
	bytes0, appends0 := ws.AppendedBytes.Load(), ws.Appends.Load()
	if err := rp.run(ops, reads); err != nil {
		return nil, err
	}
	st := &replayStats{metrics: map[string]float64{}}
	st.metrics["wal.bytes_per_event"] = float64(ws.AppendedBytes.Load()-bytes0) / float64(ws.Appends.Load()-appends0)

	final := map[string][]string{}
	var entries int
	var ownedBytes uint64
	for _, q := range w.queries {
		eng, _ := rp.reg.Get(q.name)
		res, err := eng.Results()
		if err != nil {
			return nil, err
		}
		final[q.name] = renderResult(res)
		entries += eng.MemEntries()
		if t, ok := eng.(*engine.Toaster); ok {
			_, b := t.OwnedFootprint()
			ownedBytes += b
		}
	}
	shared := 0
	for _, p := range rp.reg.Pool() {
		if p.Refs > 1 {
			shared++
		}
	}
	if err := rp.m.Close(); err != nil {
		return nil, err
	}
	if st.problems, err = recoverReplay(w, walDir, final, tr); err != nil {
		return nil, err
	}
	passes, err := standalone(w, rp.parsed, tr)
	if err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	ev := float64(rp.events)
	perEvent := func(name string) float64 { return float64(self[name].self) / ev }
	meanOf := func(name string) float64 {
		if self[name].count == 0 {
			return 0
		}
		return float64(self[name].self) / float64(self[name].count)
	}
	var alone, slowest, allocs float64
	for _, p := range passes {
		nsEv := float64(p.ns) / ev
		alone += nsEv * float64(p.instances)
		allocs += float64(p.allocs) / ev * float64(p.instances)
		slowest = max(slowest, nsEv)
	}
	st.details = append(st.details, templateDetails(passes, ev)...)
	residual := rp.residuals(ops)

	fanout := perEvent("engine.fanout")
	st.metrics["server.parse_ns_per_event"] = perEvent("server.parse")
	st.metrics["server.residual_us_per_request"] = median(residual)
	st.metrics["wal.encode_ns_per_event"] = perEvent("wal.encode")
	st.metrics["wal.write_us_per_group"] = float64(self["wal.append"].self) / float64(rp.groups) / 1e3
	st.metrics["wal.sync_us_per_group"] = meanOf("wal.sync") / 1e3
	st.metrics["wal.checkpoint_ms"] = meanOf("wal.checkpoint") / 1e6
	st.metrics["wal.recover_ms"] = meanOf("wal.recover") / 1e6
	st.metrics["engine.fanout_ns_per_event"] = fanout
	st.metrics["engine.fanout_overhead_ns_per_event"] = fanout - alone
	st.metrics["engine.shared_maps"] = float64(shared)
	st.metrics["engine.results_us"] = meanOf("engine.results") / 1e3
	st.metrics["runtime.apply_ns_per_event"] = alone
	st.metrics["runtime.apply_ns_per_event.max"] = slowest
	st.metrics["runtime.allocs_per_event"] = allocs
	st.metrics["runtime.state_entries"] = float64(entries)
	st.metrics["runtime.state_bytes"] = float64(ownedBytes)
	st.metrics["compiler.compile_ms_per_query"] = meanOf("compiler.compile") / 1e6
	st.metrics["replay.events_per_group"] = ev / float64(rp.groups)
	st.details = append(st.details, fmt.Sprintf("replay events=%d requests=%d groups=%d residual_samples=%d results_polls=%d",
		rp.events, len(rp.parsed), rp.groups, len(residual), rp.polls))
	return st, nil
}

// register builds the registry as the server does: compile each query
// (timed as the compiler layer), log a REGISTER record for all but the
// boot query, install with sharing on. Every query goes live at origin 0,
// since nothing was ingested before it.
func (rp *replayer) register() error {
	nCompile, nInstall := rp.tr.id("compiler.compile"), rp.tr.id("engine.install")
	rp.reg = engine.NewRegistry(true)
	for i, q := range rp.w.queries {
		if err := rp.reg.Begin(q.name, q.sql); err != nil {
			return err
		}
		sp := rp.tr.begin(nCompile, -1, -1)
		pq, err := engine.Prepare(q.sql, rp.w.cat)
		if err != nil {
			return err
		}
		tmp, err := engine.NewToaster(pq, runtime.Options{NoMetrics: true})
		if err != nil {
			return err
		}
		rp.tr.end(sp)
		if i > 0 {
			if _, err := rp.m.Append(wal.AppendRegister(nil, q.name, normalSQL(q.sql), 0)); err != nil {
				return err
			}
		}
		sp = rp.tr.begin(nInstall, -1, -1)
		if _, err := rp.reg.Install(q.name, pq, tmp, 0, runtime.Options{Metrics: rp.sink, MetricsLabel: q.name}); err != nil {
			return err
		}
		rp.tr.end(sp)
	}
	return nil
}

func (rp *replayer) checkpoint(parent, req int) error {
	sp := rp.tr.begin(rp.tr.id("wal.checkpoint"), parent, req)
	_, _, err := rp.m.Checkpoint(func(out io.Writer, _ uint64) error { return writeState(rp.reg, rp.w, out) })
	rp.tr.end(sp)
	return err
}

// run replays ops, commit group by commit group, polling Results() as
// often as the live readers did (reads of them in all).
func (rp *replayer) run(ops []replayOp, reads int) error {
	var (
		tr      = rp.tr
		nParse  = tr.id("server.parse")
		nGroup  = tr.id("server.commit_group")
		nEncode = tr.id("wal.encode")
		nAppend = tr.id("wal.append")
		nSync   = tr.id("wal.sync")
		nFanout = tr.id("engine.fanout")
		nResult = tr.id("engine.results")
	)
	nreq := 0
	for _, op := range ops {
		if op.req != nil {
			nreq++
		}
	}
	pollEvery := nreq + 1
	if reads > 0 {
		pollEvery = max(1, nreq/reads)
	}
	var sinceCkpt uint64
	for i := 0; i < len(ops); {
		if ops[i].req == nil {
			if err := rp.checkpoint(-1, -1); err != nil {
				return err
			}
			sinceCkpt = 0
			i++
			continue
		}
		j := i
		for j < len(ops) && ops[j].req != nil && ops[j].group == ops[i].group {
			j++
		}
		first := len(rp.parsed)
		// Connection goroutines parse before the committer sees a request.
		for k := i; k < j; k++ {
			sp := tr.begin(nParse, -1, len(rp.parsed))
			evs, err := parseRequest(rp.w, ops[k].req)
			if err != nil {
				return err
			}
			tr.end(sp)
			rp.parsed = append(rp.parsed, evs)
			rp.parseSpan = append(rp.parseSpan, sp)
			rp.events += len(evs)
		}
		gs := tr.begin(nGroup, -1, first)
		sp := tr.begin(nEncode, gs, first)
		var datas [][]byte
		for _, evs := range rp.parsed[first:] {
			for _, ev := range evs {
				datas = append(datas, wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args))
			}
		}
		tr.end(sp)
		sp = tr.begin(nAppend, gs, first)
		if _, err := rp.m.AppendBatch(datas); err != nil {
			return err
		}
		tr.end(sp)
		if rp.w.walSync {
			sp = tr.begin(nSync, gs, first)
			if err := rp.m.Sync(); err != nil {
				return err
			}
			tr.end(sp)
		}
		for rid := first; rid < len(rp.parsed); rid++ {
			sp = tr.begin(nFanout, gs, rid)
			var err error
			if evs := rp.parsed[rid]; len(evs) == 1 {
				err = rp.reg.OnEvent(evs[0])
			} else {
				err = rp.reg.OnEventBatch(evs)
			}
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("replay request %d: %w", rid, err)
			}
			sinceCkpt += uint64(len(rp.parsed[rid]))
		}
		if rp.w.ckptEvery > 0 && sinceCkpt >= rp.w.ckptEvery {
			if err := rp.checkpoint(gs, first); err != nil {
				return err
			}
			sinceCkpt = 0
		}
		tr.end(gs)
		for k := i; k < j; k++ {
			rp.groupSpan = append(rp.groupSpan, gs)
		}
		if !rp.w.walSync && rp.groups%unsampledSyncEvery == 0 {
			sp = tr.begin(nSync, -1, -1)
			if err := rp.m.Sync(); err != nil {
				return err
			}
			tr.end(sp)
		}
		rp.groups++
		for rid := first; rid < len(rp.parsed); rid++ {
			if rid%pollEvery != pollEvery-1 || rp.polls >= reads {
				continue
			}
			name := rp.w.polled[rp.polls%len(rp.w.polled)]
			eng, ok := rp.reg.Get(name)
			if !ok {
				return fmt.Errorf("replay: unknown polled query %q", name)
			}
			sp = tr.begin(nResult, -1, rid)
			if _, err := eng.Results(); err != nil {
				return err
			}
			tr.end(sp)
			rp.polls++
		}
		i = j
	}
	return nil
}

// residuals lists, per request with a live client span, its round trip
// minus the replayed time it blocks on: its own parse plus its whole
// commit group (µs).
func (rp *replayer) residuals(ops []replayOp) []float64 {
	var out []float64
	rid := 0
	for _, op := range ops {
		if op.req == nil {
			continue
		}
		if op.client > 0 {
			layer := rp.tr.dur(rp.parseSpan[rid]) + rp.tr.dur(rp.groupSpan[rid])
			out = append(out, float64(op.client-layer)/1e3)
		}
		rid++
	}
	return out
}

// recoverReplay reopens the replay's log and rebuilds every query from the
// newest checkpoint plus the tail, as a restarted server does; every
// recovered answer must equal final.
func recoverReplay(w *workload, walDir string, final map[string][]string, tr *tracer) ([]string, error) {
	sp := tr.begin(tr.id("wal.recover"), -1, -1)
	m, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	reg := engine.NewRegistry(true)
	_, err = m.Recover(
		func(r io.Reader) error { return readState(reg, w, r) },
		func(_ uint64, data []byte) error {
			if wal.RecordType(data) >= wal.RecRegister {
				return nil
			}
			rel, insert, args, err := wal.DecodeEvent(data)
			if err != nil {
				return err
			}
			op := stream.Delete
			if insert {
				op = stream.Insert
			}
			return reg.OnEvent(stream.Event{Op: op, Relation: rel, Args: args})
		})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay recovery: %w", err)
	}
	var problems []string
	for _, q := range w.queries {
		eng, ok := reg.Get(q.name)
		if !ok {
			return nil, fmt.Errorf("replay recovery lost query %q", q.name)
		}
		res, err := eng.Results()
		if err != nil {
			return nil, err
		}
		if got := renderResult(res); !slices.Equal(got, final[q.name]) {
			problems = append(problems, fmt.Sprintf("replay recovery: %s: got %s, want %s", q.name, clip(got), clip(final[q.name])))
		}
	}
	return problems, nil
}

// pass is one standalone engine's run over the replayed requests.
type pass struct {
	q         query
	instances int // queries with this SQL
	ns        int64
	allocs    uint64
}

// standalone applies the parsed requests to one fresh engine per distinct
// query, timed as one span per pass so the timer stays off the per-event
// path.
func standalone(w *workload, parsed [][]stream.Event, tr *tracer) ([]*pass, error) {
	var passes []*pass
	bySQL := map[string]*pass{}
	for _, q := range w.queries {
		if p := bySQL[q.sql]; p != nil {
			p.instances++
			continue
		}
		p := &pass{q: q, instances: 1}
		bySQL[q.sql] = p
		passes = append(passes, p)
	}
	sink := metrics.New()
	var ms goruntime.MemStats
	for _, p := range passes {
		pq, err := engine.Prepare(p.q.sql, w.cat)
		if err != nil {
			return nil, err
		}
		t, err := engine.NewToaster(pq, runtime.Options{Metrics: sink, MetricsLabel: p.q.name})
		if err != nil {
			return nil, err
		}
		name := tr.id("runtime.apply." + p.q.name)
		goruntime.ReadMemStats(&ms)
		before := ms.Mallocs
		sp := tr.begin(name, -1, -1)
		for _, evs := range parsed {
			if len(evs) == 1 {
				err = t.OnEvent(evs[0])
			} else {
				err = t.OnEventBatch(evs)
			}
			if err != nil {
				return nil, err
			}
		}
		tr.end(sp)
		p.ns = tr.dur(sp)
		goruntime.ReadMemStats(&ms)
		p.allocs = ms.Mallocs - before
	}
	return passes, nil
}

// templateDetails reports standalone apply cost per query template (the
// mean over its instances).
func templateDetails(passes []*pass, events float64) []string {
	type acc struct{ ns, n float64 }
	by := map[string]*acc{}
	var names []string
	for _, p := range passes {
		a := by[p.q.template]
		if a == nil {
			a = &acc{}
			by[p.q.template] = a
			names = append(names, p.q.template)
		}
		a.ns += float64(p.ns) / events * float64(p.instances)
		a.n += float64(p.instances)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("runtime.apply_ns_per_event.%s %.1f (mean of %d instances)", name, by[name].ns/by[name].n, int(by[name].n))
	}
	return out
}

// parseRequest parses a request's delta lines as the server does.
func parseRequest(w *workload, req []byte) ([]stream.Event, error) {
	lines := eventLines(req)
	evs := make([]stream.Event, 0, len(lines))
	for _, l := range lines {
		ev, err := parseEvent(w.cat, l)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

func normalSQL(sql string) string { return strings.Join(strings.Fields(sql), " ") }

// writeState is the replay's checkpoint payload: each query's name and
// engine snapshot, in registration order.
func writeState(reg *engine.Registry, w *workload, out io.Writer) error {
	for _, q := range w.queries {
		eng, ok := reg.Get(q.name)
		if !ok {
			return fmt.Errorf("checkpoint: query %q missing", q.name)
		}
		d, ok := eng.(engine.Durable)
		if !ok {
			return fmt.Errorf("checkpoint: query %q has no snapshot", q.name)
		}
		var blob bytes.Buffer
		if err := d.StateSnapshot(&blob, 0); err != nil {
			return err
		}
		if err := writeBlob(out, []byte(q.name)); err != nil {
			return err
		}
		if err := writeBlob(out, blob.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// readState rebuilds every query from a writeState payload the way a
// recovering server does: compile, restore the snapshot, install.
func readState(reg *engine.Registry, w *workload, in io.Reader) error {
	br := bufio.NewReader(in)
	for _, q := range w.queries {
		name, err := readBlob(br)
		if err != nil {
			return err
		}
		if string(name) != q.name {
			return fmt.Errorf("checkpoint holds %q where %q was expected", name, q.name)
		}
		blob, err := readBlob(br)
		if err != nil {
			return err
		}
		if err := reg.Begin(q.name, q.sql); err != nil {
			return err
		}
		pq, err := engine.Prepare(q.sql, w.cat)
		if err != nil {
			return err
		}
		tmp, err := engine.NewToaster(pq, runtime.Options{NoMetrics: true})
		if err != nil {
			return err
		}
		if _, err := tmp.StateRestore(bytes.NewReader(blob)); err != nil {
			return err
		}
		if _, err := reg.Install(q.name, pq, tmp, 0, runtime.Options{NoMetrics: true}); err != nil {
			return err
		}
	}
	return nil
}

func writeBlob(w io.Writer, b []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readBlob(r io.Reader) ([]byte, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	b := make([]byte, n)
	_, err := io.ReadFull(r, b)
	return b, err
}
