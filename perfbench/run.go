package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanBlock is the client-span on/off block length of a traced run, in
// requests: a traced run records a client span (two clock reads and an
// append) only for requests in even blocks, so comparing the blocks gives
// the spans' overhead against untraced requests of the same run.
const spanBlock = 64

// sent records one producer request of the timed phase.
type sent struct {
	conn, idx int
	ack       int64 // ns since the phase began, when the reply arrived
	rtt       int64
	cycle     int64 // ns from this send to the producer's next send
	span      int   // index of its client span, -1 outside span blocks
}

// window is one measurement window: one second of a timed phase, or one
// bulk-load round. Every end-to-end statistic is computed per window and
// reported as the best quartile over windows (see run in main.go), so a
// burst of host noise that hits some windows moves no reported figure.
type window struct {
	events      int
	dur         time.Duration
	acks, reads []float64 // µs
}

// windowWidth is the length of a timed phase's windows.
const windowWidth = time.Second

// timed is one sample of a phase: when it completed and what it measured.
type timed struct {
	at     time.Duration // since the phase began
	us     float64
	events int
}

// phaseOut is what one load phase measured.
type phaseOut struct {
	next        []int // per producer: the next request index
	elapsed     time.Duration
	acks, reads []timed
}

// windows cuts the phase into n windows by completion time.
func (o *phaseOut) windows(n int) []window {
	ws := make([]window, n)
	width := o.elapsed / time.Duration(n)
	slot := func(at time.Duration) *window { return &ws[min(int(at/width), n-1)] }
	for _, a := range o.acks {
		w := slot(a.at)
		w.acks = append(w.acks, a.us)
		w.events += a.events
	}
	for _, rd := range o.reads {
		w := slot(rd.at)
		w.reads = append(w.reads, rd.us)
	}
	for i := range ws {
		ws[i].dur = width
	}
	return ws
}

// merged folds the phase into one window.
func (o *phaseOut) merged() window {
	w := window{dur: o.elapsed}
	for _, a := range o.acks {
		w.acks = append(w.acks, a.us)
		w.events += a.events
	}
	for _, rd := range o.reads {
		w.reads = append(w.reads, rd.us)
	}
	return w
}

// runner holds one benchmark run's settings and samples.
type runner struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string
	dir     string // per-run scratch directory (WAL directories, spans)

	attempted, failed int64
	problems          []string

	windows              []window
	setups, recoveries   []float64 // s
	loadTime             time.Duration
	liveWAL              map[string]float64
	order                []replayOp // traced runs: the live sequence in server order
	clientSpans          []span     // traced runs: client.request spans, req = server-order request id
	spanCycle, freeCycle []float64  // traced runs: per-request cycle ns inside/outside span blocks
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) walDir() string { return filepath.Join(r.dir, "wal") }

func (r *runner) serverArgs(walDir string, recover bool) []string {
	args := []string{"-catalog", r.w.catalog, "-sql", r.w.queries[0].sql,
		"-addr", "127.0.0.1:0", "-wal-dir", walDir}
	if r.w.walSync {
		args = append(args, "-wal-sync")
	}
	if r.w.ckptEvery > 0 {
		args = append(args, "-checkpoint-every", strconv.FormatUint(r.w.ckptEvery, 10))
	}
	if recover {
		args = append(args, "-recover")
	}
	return args
}

// boot starts a fresh server and registers every standing query; the
// elapsed time, process start to the last REGISTER acknowledged, is one
// setup_s sample.
func (r *runner) boot(walDir string) (*serverProc, *conn, error) {
	if err := os.RemoveAll(walDir); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	p, _, err := startServer(r.bin, r.serverArgs(walDir, false))
	if err != nil {
		return nil, nil, err
	}
	c, err := dial(p.addr)
	if err != nil {
		p.stop()
		return nil, nil, err
	}
	for _, q := range r.w.queries[1:] {
		if _, _, err := c.command("REGISTER " + q.name + " " + normalSQL(q.sql)); err != nil {
			c.quit()
			p.stop()
			return nil, nil, err
		}
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return p, c, nil
}

// bootSamples takes throwaway setup samples, in a WAL directory of their
// own, until there are n.
func (r *runner) bootSamples(n int) error {
	for len(r.setups) < n {
		p, c, err := r.boot(filepath.Join(r.dir, "setup-wal"))
		if err != nil {
			return err
		}
		c.quit()
		if err := p.stop(); err != nil {
			return err
		}
	}
	return nil
}

// results reads every query's RESULT, normalized for comparison.
func (r *runner) results(c *conn) (map[string][]string, error) {
	out := map[string][]string{}
	for _, q := range r.w.queries {
		r.attempted++
		_, body, err := c.command("RESULT " + q.name)
		if err != nil {
			return nil, err
		}
		out[q.name] = normalize(body)
	}
	return out, nil
}

// check compares the server's answers with the expected ones; each
// mismatch is a failed request.
func (r *runner) check(what string, got, want map[string][]string) {
	for _, q := range r.w.queries {
		if !slices.Equal(got[q.name], want[q.name]) {
			r.fail("%s: %s: got %v, want %v", what, q.name, clip(got[q.name]), clip(want[q.name]))
		}
	}
}

// producer drives one closed loop: send a request, wait for its reply,
// send the next, until the deadline or the input runs out. With
// readEvery set it also polls a RESULT after every readEvery requests.
// ERR replies are returned as rejects and the loop goes on; an I/O error
// ends it.
func (r *runner) producer(p int, c *conn, s *reqStream, from int, base time.Time, deadline time.Duration,
	log *[]sent, spans *[]span, reads *[]timed, polled []string) (next int, rejects []string, err error) {
	i := from
	prev := -1 // this producer's previous entry in *log
	for ; i < s.len(); i++ {
		t0 := time.Since(base)
		if prev >= 0 {
			e := &(*log)[prev]
			e.cycle = int64(t0) - (e.ack - e.rtt)
		}
		if t0 >= deadline {
			break
		}
		sp := -1
		if r.traced && (i/spanBlock)%2 == 0 {
			sp = len(*spans)
			*spans = append(*spans, span{start: int64(time.Since(base)), parent: -1})
		}
		head, err := c.send(s.get(i))
		if sp >= 0 {
			(*spans)[sp].end = int64(time.Since(base))
		}
		t1 := time.Since(base)
		if err != nil {
			return i, rejects, fmt.Errorf("producer %d: %w", p, err)
		}
		if head != "OK" {
			rejects = append(rejects, fmt.Sprintf("producer %d request %d: %s", p, i, head))
		}
		*log = append(*log, sent{conn: p, idx: i, ack: int64(t1), rtt: int64(t1 - t0), span: sp})
		prev = len(*log) - 1
		if r.w.readEvery > 0 && (i-from+1)%r.w.readEvery == 0 {
			name := polled[((i-from+1)/r.w.readEvery)%len(polled)]
			t0 := time.Since(base)
			head, _, err := c.command("RESULT " + name)
			if err != nil && !strings.HasPrefix(head, "ERR") {
				return i + 1, rejects, fmt.Errorf("producer %d: %w", p, err)
			}
			t1 := time.Since(base)
			if err != nil {
				rejects = append(rejects, err.Error())
				continue
			}
			*reads = append(*reads, timed{at: t1, us: float64(t1-t0) / 1e3})
		}
	}
	return i, rejects, nil
}

// reader polls the first polled query after a fixed think time until
// stop closes. Like producer, it returns ERR replies as rejects and stops
// on an I/O error.
func (r *runner) reader(c *conn, base time.Time, stop <-chan struct{}, out *[]timed) (rejects []string, err error) {
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		t.Reset(r.w.think)
		select {
		case <-stop:
			return rejects, nil
		case <-t.C:
		}
		t0 := time.Since(base)
		head, _, err := c.command("RESULT " + r.w.polled[0])
		if err != nil && !strings.HasPrefix(head, "ERR") {
			return rejects, fmt.Errorf("reader: %w", err)
		}
		t1 := time.Since(base)
		if err != nil {
			rejects = append(rejects, err.Error())
			continue
		}
		*out = append(*out, timed{at: t1, us: float64(t1-t0) / 1e3})
	}
}

// phase runs the producers (and the separate reader, when the workload
// has one) from each producer's position `from` until the deadline or
// until `until` requests of each producer are sent.
func (r *runner) phase(addr string, ctl *conn, in *input, from, until []int, deadline time.Duration) (*phaseOut, error) {
	conns := []*conn{ctl}
	for p := 1; p < r.w.producers; p++ {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.quit()
		conns = append(conns, c)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		rejects []string
		errs    []error
		next    = make([]int, r.w.producers)
		logs    = make([][]sent, r.w.producers)
		spans   = make([][]span, r.w.producers)
		preads  = make([][]timed, r.w.producers)
		rdReads []timed
	)
	stopReader := make(chan struct{})
	var rwg sync.WaitGroup
	base := time.Now()
	if r.w.readEvery == 0 {
		rc, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer rc.quit()
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			rj, err := r.reader(rc, base, stopReader, &rdReads)
			mu.Lock()
			rejects = append(rejects, rj...)
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
		}()
	}
	for p := 0; p < r.w.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := *r.inputStream(in, p, until[p])
			logs[p] = make([]sent, 0, 1024)
			var polled []string
			for i := p; i < len(r.w.polled); i += r.w.producers {
				polled = append(polled, r.w.polled[i])
			}
			n, rj, err := r.producer(p, conns[p], &s, from[p], base, deadline, &logs[p], &spans[p], &preads[p], polled)
			mu.Lock()
			next[p] = n
			rejects = append(rejects, rj...)
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(base)
	close(stopReader)
	rwg.Wait()

	out := &phaseOut{next: next, elapsed: elapsed}
	r.loadTime += elapsed
	for p := range logs {
		for _, s := range logs[p] {
			r.attempted++
			out.acks = append(out.acks, timed{at: time.Duration(s.ack), us: float64(s.rtt) / 1e3, events: in.conns[p].nev[s.idx]})
		}
		out.reads = append(out.reads, preads[p]...)
	}
	out.reads = append(out.reads, rdReads...)
	r.attempted += int64(len(out.reads))
	for _, rj := range rejects {
		r.fail("%s", rj)
	}
	if r.traced {
		r.recordOrder(in, logs, spans)
	}
	if len(errs) > 0 {
		return out, fmt.Errorf("load phase: %w", errs[0])
	}
	return out, nil
}

// inputStream limits producer p's stream to its first `until` requests.
func (r *runner) inputStream(in *input, p, until int) *reqStream {
	s := in.conns[p]
	if until >= s.len() {
		return s
	}
	return &reqStream{buf: s.buf, ends: s.ends[:until], nev: s.nev[:until]}
}

// groupGap separates commit groups in the ack timeline: replies to one
// group leave the committer back to back, while consecutive groups are a
// whole WAL write (and fsync) apart.
const groupGap = 150 * time.Microsecond

// recordOrder appends a phase's requests to the replay order: by reply
// time, which is commit order, and grouped like the live committer
// grouped them — adjacent replies from different producers within
// groupGap of each other. Client spans get their request's server-order
// id.
func (r *runner) recordOrder(in *input, logs [][]sent, spans [][]span) {
	var all []sent
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ack < all[j].ack })
	group := 0
	if n := len(r.order); n > 0 {
		group = r.order[n-1].group + 1
	}
	rid := r.requests()
	members := map[int]bool{}
	for i, s := range all {
		if i > 0 && (time.Duration(s.ack-all[i-1].ack) > groupGap || members[s.conn]) {
			group++
			members = map[int]bool{}
		}
		members[s.conn] = true
		op := replayOp{req: in.conns[s.conn].get(s.idx), group: group}
		if s.span >= 0 {
			cs := spans[s.conn][s.span]
			cs.req = int32(rid)
			op.client = cs.end - cs.start
			r.clientSpans = append(r.clientSpans, cs)
		}
		r.order = append(r.order, op)
		rid++
		if s.cycle > 0 {
			if s.span >= 0 {
				r.spanCycle = append(r.spanCycle, float64(s.cycle))
			} else {
				r.freeCycle = append(r.freeCycle, float64(s.cycle))
			}
		}
	}
}

// requests counts the request steps in the replay order so far.
func (r *runner) requests() int {
	n := 0
	for _, op := range r.order {
		if op.req != nil {
			n++
		}
	}
	return n
}

// sendSequential sends requests one at a time on c, outside any timed
// phase (the post-checkpoint tail), recording them for the replay.
func (r *runner) sendSequential(c *conn, in *input, p, from, to int) error {
	s := in.conns[p]
	for i := from; i < to && i < s.len(); i++ {
		r.attempted++
		head, err := c.send(s.get(i))
		if err != nil {
			return err
		}
		if head != "OK" {
			r.fail("tail request %d: %s", i, head)
		}
		if r.traced {
			group := 0
			if n := len(r.order); n > 0 {
				group = r.order[n-1].group + 1
			}
			r.order = append(r.order, replayOp{req: s.get(i), group: group})
		}
	}
	return nil
}

func (r *runner) checkpoint(c *conn) error {
	r.attempted++
	if _, _, err := c.command("CHECKPOINT"); err != nil {
		return err
	}
	if r.traced {
		r.order = append(r.order, replayOp{})
	}
	return nil
}

// readWAL reads the live server's WAL counters (zeroed by RESET when the
// timed phase began).
func (r *runner) readWAL(c *conn) error {
	r.attempted++
	_, body, err := c.command("METRICS")
	if err != nil {
		return err
	}
	r.liveWAL = walCounters(body)
	return nil
}

// recoveryCheck restarts the server with -recover (several times, for a
// median) and requires every recovered RESULT to equal want.
func (r *runner) recoveryCheck(want map[string][]string, n int) error {
	for k := 0; k < n; k++ {
		p, d, err := startServer(r.bin, r.serverArgs(r.walDir(), true))
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		r.recoveries = append(r.recoveries, d.Seconds())
		c, err := dial(p.addr)
		if err != nil {
			p.stop()
			return err
		}
		got, err := r.results(c)
		c.quit()
		if err != nil {
			p.stop()
			return err
		}
		r.check("recovered", got, want)
		if err := p.stop(); err != nil {
			return err
		}
	}
	return nil
}

// runStream is the ticks/tenants run: one server, a timed phase of
// --seconds, the correctness gate, then checkpoint + tail + recovery.
func (r *runner) runStream() error {
	in := buildInput(r.w, r.seed, int(r.seconds.Seconds()*float64(r.w.capPerSecond))+r.w.tailEvents+1024)
	if err := r.bootSamples(r.setupCount() - 1); err != nil {
		return err
	}
	p, ctl, err := r.boot(r.walDir())
	if err != nil {
		return err
	}
	defer func() {
		if p != nil {
			ctl.quit()
			p.stop()
		}
	}()
	r.attempted++
	if _, _, err := ctl.command("RESET"); err != nil {
		return err
	}
	from := make([]int, r.w.producers)
	until := make([]int, r.w.producers)
	for i := range until {
		until[i] = in.conns[i].len()
	}
	// Keep enough unsent input for the tail.
	tailReqs := make([]int, r.w.producers)
	for i := range tailReqs {
		tailReqs[i] = (r.w.tailEvents/r.w.batch + r.w.producers - 1) / r.w.producers
		until[i] -= tailReqs[i]
	}
	out, err := r.phase(p.addr, ctl, in, from, until, r.seconds)
	if err != nil {
		return err
	}
	r.windows = out.windows(max(1, int(out.elapsed/windowWidth)))
	next := out.next
	if err := r.readWAL(ctl); err != nil {
		return err
	}
	want, err := reference(r.w, r.sentRequests(in, next))
	if err != nil {
		return err
	}
	got, err := r.results(ctl)
	if err != nil {
		return err
	}
	r.check("after load", got, want)

	if err := r.checkpoint(ctl); err != nil {
		return err
	}
	for i := range next {
		if err := r.sendSequential(ctl, in, i, next[i], next[i]+tailReqs[i]); err != nil {
			return err
		}
		next[i] += tailReqs[i]
	}
	want, err = reference(r.w, r.sentRequests(in, next))
	if err != nil {
		return err
	}
	got, err = r.results(ctl)
	if err != nil {
		return err
	}
	r.check("after tail", got, want)
	ctl.quit()
	err = p.stop()
	p = nil
	if err != nil {
		return err
	}
	return r.recoveryCheck(got, r.recoveryCount())
}

// setupCount and recoveryCount are the setup_s and recovery_s sample
// counts; a traced run, which reports neither, takes one of each.
func (r *runner) setupCount() int {
	if r.traced {
		return 1
	}
	return r.w.setups
}

func (r *runner) recoveryCount() int {
	if r.traced {
		return 1
	}
	return r.w.recoveries
}

// sentRequests lists every request of the first next[p] of each producer.
func (r *runner) sentRequests(in *input, next []int) [][]byte {
	var out [][]byte
	for p, n := range next {
		for i := 0; i < n && i < in.conns[p].len(); i++ {
			out = append(out, in.conns[p].get(i))
		}
	}
	return out
}

// runFixed is the bulk-load run: rounds of the same fixed load, each to a
// fresh server (one measurement window each) and checkpointed halfway,
// until --seconds of load time have passed. Each round's WAL then feeds
// the recovery check. Setup and recovery samples are taken round by
// round, not in a burst at the end, so that host noise which comes and
// goes within a run moves their medians no more than the windows'.
func (r *runner) runFixed() error {
	in := buildInput(r.w, r.seed, 0)
	all := []int{in.conns[0].len()}
	half := []int{in.ckptAt}
	want, err := reference(r.w, r.sentRequests(in, all))
	if err != nil {
		return err
	}
	for round := 0; ; round++ {
		if err := r.loadRound(in, half, all, want, round); err != nil {
			return err
		}
		if err := r.bootSamples(len(r.setups) + r.setupCount() - 1); err != nil {
			return err
		}
		if err := r.recoveryCheck(want, r.recoveryCount()); err != nil {
			return err
		}
		if r.loadTime >= r.seconds || r.traced {
			return nil
		}
	}
}

// loadRound loads the fixed input into a fresh server: the first half,
// a CHECKPOINT, the second half, then the correctness gate. The
// checkpoint gives the recovery check a snapshot plus a log tail; it is a
// command of its own between the two timed halves, so its disk time is
// not load time.
func (r *runner) loadRound(in *input, half, all []int, want map[string][]string, round int) error {
	p, ctl, err := r.boot(r.walDir())
	if err != nil {
		return err
	}
	r.attempted++
	var first, second *phaseOut
	if _, _, err = ctl.command("RESET"); err == nil {
		r.order = r.order[:0]
		first, err = r.phase(p.addr, ctl, in, []int{0}, half, time.Hour)
	}
	if err == nil {
		err = r.checkpoint(ctl)
	}
	if err == nil {
		second, err = r.phase(p.addr, ctl, in, half, all, time.Hour)
	}
	if err == nil {
		w, w2 := first.merged(), second.merged()
		w.events += w2.events
		w.dur += w2.dur
		w.acks = append(w.acks, w2.acks...)
		w.reads = append(w.reads, w2.reads...)
		r.windows = append(r.windows, w)
	}
	if err == nil {
		err = r.readWAL(ctl)
	}
	var got map[string][]string
	if err == nil {
		got, err = r.results(ctl)
	}
	ctl.quit()
	if err != nil {
		p.stop()
		return err
	}
	r.check(fmt.Sprintf("round %d", round), got, want)
	return p.stop()
}

// bestQuartile is the quantile of a run's windows or samples it reports
// for a time (and 1-bestQuartile for a rate); see run in main.go.
const bestQuartile = 0.25

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func clip(lines []string) string {
	s := strings.Join(lines, " / ")
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
