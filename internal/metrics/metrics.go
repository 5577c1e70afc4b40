// Package metrics is the runtime's low-overhead instrumentation layer:
// per-(relation, event-kind) trigger counters and latency histograms,
// per-map cardinality gauges, WAL and robustness series, and engine
// uptime/throughput — the observable counterpart of the paper's
// Figure 4 debugger, built for production streams instead of stepping.
//
// Design constraints, in priority order:
//
//   - Disabled means free: every instrumented call site guards on a nil
//     *Sink (or a nil per-object handle), so an uninstrumented engine's
//     hot path is bit-identical to the pre-metrics code — zero extra
//     allocations, one predictable branch.
//   - Enabled means allocation-free: recording is atomic increments into
//     fixed arrays registered at engine construction. No map lookups, no
//     boxing, no time formatting on the hot path. Latency timestamps are
//     sampled (default 1 in 16 trigger firings) so the two time.Now calls
//     amortize to ~1-2ns/event.
//   - Concurrent by construction: every cell is an atomic, so the
//     server's committer, its clients, and metric readers share one Sink
//     without coordination.
//
// Reading is pull-based: Snapshot() materializes a consistent-enough view
// (individually atomic reads; cross-series skew is bounded by in-flight
// events) that serializes to the dbtserver METRICS command, Prometheus
// text format, expvar JSON, and the bakeoff's BENCH_*.json files.
package metrics

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one and returns the new value.
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter (the RESET command between bakeoff phases).
// Concurrent increments race benignly: they land either before or after
// the reset, never corrupt it.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an instantaneous atomic value (e.g. live map entries).
type Gauge struct{ v atomic.Int64 }

// Inc adds one and returns the new value (so callers can feed a
// high-water MaxTo without a second atomic read).
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MaxTo raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) MaxTo(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram bucket geometry: power-of-two buckets from <2^histMinShift up
// to >=2^(histMinShift+histBuckets-2). With histMinShift=7 and 24 buckets
// the range is 128ns .. ~1.07s, which covers trigger latencies from the
// sub-microsecond typed kernels to pathological full-scan statements, and
// commit group sizes 1 .. 8M as a unitless distribution.
const (
	histMinShift = 7
	histBuckets  = 24
)

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// allocation-free and safe for concurrent use; values are clamped into
// the bucket range rather than dropped.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf maps a value to its bucket index: bucket 0 holds values below
// 2^histMinShift, bucket i holds [2^(histMinShift+i-1), 2^(histMinShift+i)).
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v)) // 0..64
	if i <= histMinShift {
		return 0
	}
	i -= histMinShift
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value (nanoseconds for latencies; unitless for
// sizes). Allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Reset zeroes all buckets and totals.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"` // per-bucket counts, low to high
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	s.Buckets = make([]uint64, histBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i >= histBuckets-1 {
		return ^uint64(0)
	}
	return 1<<(histMinShift+i) - 1
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from the
// bucket boundaries: the answer is exact to within one power of two.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// TriggerStats is one (relation, event-kind) series: how many times the
// trigger fired, how many firings errored, and a sampled latency
// distribution. Registered once at engine construction. Each event fires
// at most one trigger per engine, so Snapshot derives the sink-wide event
// total from trigger counts without a second per-event atomic on the hot
// path.
type TriggerStats struct {
	Label    string // engine/query scope ("" for unscoped engines)
	Relation string
	Insert   bool
	Count    Counter
	Errors   Counter
	Latency  Histogram
}

// WALStats is the durability subsystem's series: write-ahead appends,
// fsync and checkpoint durations, recovery activity, and the group-commit
// stage (commit groups written, the distribution of events coalesced per
// group). Registered once per sink (the WAL is a server-wide facility,
// not per-query).
type WALStats struct {
	Appends         Counter
	AppendedBytes   Counter
	Syncs           Counter
	SyncNs          Histogram
	Checkpoints     Counter
	CheckpointNs    Histogram
	CheckpointBytes Counter
	Recoveries      Counter
	ReplayedRecords Counter
	GroupCommits    Counter
	GroupSize       Histogram
}

// RobustStats is the overload-protection and failure-isolation series:
// requests shed by the bounded committer, connections refused at the
// accept loop, idle connections reaped, queries quarantined, and native
// children respawned. Registered once per sink, like WALStats.
type RobustStats struct {
	ShedRequests   Counter
	ShedEvents     Counter
	ConnRejects    Counter
	IdleCloses     Counter
	Quarantines    Counter
	NativeRestarts Counter
}

// MapStats is one view map's live gauges: entry cardinality and its
// high-water mark. Entries/Peak move only on entry births and deaths, so
// steady-state updates (the hot path) never touch them.
type MapStats struct {
	Label   string
	Name    string
	Layout  string // physical layout ("int1", "int2", "generic")
	Entries Gauge
	Peak    Gauge
}

// ApproxBytes estimates the map's resident bytes from its layout: packed
// layouts store 8-byte keys (16 for int2) and 8-byte values in Go map
// cells; the generic layout holds an entry struct, its key string, and the
// boxed tuple (~96 bytes measured for small keys). An estimate, not an
// accounting — the Prometheus export labels it accordingly.
func (m *MapStats) ApproxBytes() uint64 {
	n := uint64(m.Entries.Load())
	switch m.Layout {
	case "int1":
		return n * 24
	case "int2":
		return n * 32
	case "int3", "int4":
		return n * 48 // [4]uint64 key + float64 value in Go map cells
	default:
		return n * 112
	}
}

// Config tunes a Sink.
type Config struct {
	// SampleEvery records a latency timestamp pair on every Nth trigger
	// firing (rounded down to a power of two; 1 = every firing; 0 = the
	// default of 64). Counters are exact regardless. The default keeps the
	// amortized clock cost well under the cost of the per-event counter
	// itself: two clock reads run ~100ns on a virtualized host, so 1-in-64
	// sampling adds ~1.5ns/event versus ~6ns at 1-in-16.
	SampleEvery int
}

// Sink is the instrumentation registry one engine (or one server hosting
// several engines) records into. Registration (Trigger, Map, WAL, ...)
// happens at construction time and may allocate; recording through the
// returned handles is atomic and allocation-free.
type Sink struct {
	start      time.Time
	sampleMask uint64

	mu       sync.Mutex
	triggers []*TriggerStats
	trigIdx  map[string]*TriggerStats
	maps     []*MapStats
	mapIdx   map[string]*MapStats
	wal      *WALStats
	robust   *RobustStats
	queries  []*QueryStats
	queryIdx map[string]*QueryStats

	// trace is the structured sample export ring (see query.go); it has
	// its own lock because records arrive on the sampled hot path.
	trace traceRing
}

// New creates a Sink with default configuration.
func New() *Sink { return NewWithConfig(Config{}) }

// NewWithConfig creates a Sink.
func NewWithConfig(cfg Config) *Sink {
	n := cfg.SampleEvery
	if n <= 0 {
		n = 64
	}
	// Round down to a power of two so sampling is a mask test.
	mask := uint64(1)<<uint(bits.Len(uint(n))-1) - 1
	return &Sink{
		start:      time.Now(),
		sampleMask: mask,
		trigIdx:    map[string]*TriggerStats{},
		mapIdx:     map[string]*MapStats{},
		queryIdx:   map[string]*QueryStats{},
	}
}

// Sampled reports whether the firing with the given (1-based) sequence
// number should record a latency timestamp pair.
func (s *Sink) Sampled(seq uint64) bool { return seq&s.sampleMask == 0 }

// SampleInterval returns the latency sampling interval (1 = every firing).
func (s *Sink) SampleInterval() uint64 { return s.sampleMask + 1 }

// Start returns the uptime origin: the sink's creation time, or the most
// recent Reset.
func (s *Sink) Start() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

func trigKey(label, rel string, insert bool) string {
	op := "-"
	if insert {
		op = "+"
	}
	return label + "\x00" + op + rel
}

// Trigger registers (or returns the existing) series for one
// (label, relation, event-kind); its counts contribute to the sink-wide
// event total.
func (s *Sink) Trigger(label, rel string, insert bool) *TriggerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := trigKey(label, rel, insert)
	if t, ok := s.trigIdx[k]; ok {
		return t
	}
	t := &TriggerStats{Label: label, Relation: rel, Insert: insert}
	s.trigIdx[k] = t
	s.triggers = append(s.triggers, t)
	return t
}

// Map registers (or returns the existing) gauges for one view map.
func (s *Sink) Map(label, name, layout string) *MapStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := label + "\x00" + name
	if m, ok := s.mapIdx[k]; ok {
		return m
	}
	m := &MapStats{Label: label, Name: name, Layout: layout}
	s.mapIdx[k] = m
	s.maps = append(s.maps, m)
	return m
}

// WAL returns the sink's durability series (created on first use).
func (s *Sink) WAL() *WALStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		s.wal = &WALStats{}
	}
	return s.wal
}

// Robust returns the sink's overload/failure-isolation series (created on
// first use).
func (s *Sink) Robust() *RobustStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.robust == nil {
		s.robust = &RobustStats{}
	}
	return s.robust
}

// Reset zeroes every counter and histogram and restarts the uptime clock,
// so back-to-back bakeoff phases can share one server without the earlier
// phase polluting the later phase's rates. Map cardinality gauges describe
// live state rather than accumulated history, so Entries is kept and Peak
// collapses to the current cardinality.
func (s *Sink) Reset() {
	s.mu.Lock()
	triggers := append([]*TriggerStats(nil), s.triggers...)
	maps := append([]*MapStats(nil), s.maps...)
	wal, robust := s.wal, s.robust
	s.start = time.Now()
	s.mu.Unlock()
	for _, t := range triggers {
		t.Count.Reset()
		t.Errors.Reset()
		t.Latency.Reset()
	}
	for _, m := range maps {
		m.Peak.Set(m.Entries.Load())
	}
	// Query lifecycle gauges (compile time, catch-up size) are registration
	// facts, not stream rates — they survive Reset. The trace ring holds
	// stream history and is cleared.
	s.trace.mu.Lock()
	s.trace.buf = [TraceRingSize]TraceEvent{}
	s.trace.mu.Unlock()
	if wal != nil {
		wal.Appends.Reset()
		wal.AppendedBytes.Reset()
		wal.Syncs.Reset()
		wal.SyncNs.Reset()
		wal.Checkpoints.Reset()
		wal.CheckpointNs.Reset()
		wal.CheckpointBytes.Reset()
		wal.Recoveries.Reset()
		wal.ReplayedRecords.Reset()
		wal.GroupCommits.Reset()
		wal.GroupSize.Reset()
	}
	if robust != nil {
		robust.ShedRequests.Reset()
		robust.ShedEvents.Reset()
		robust.ConnRejects.Reset()
		robust.IdleCloses.Reset()
		robust.Quarantines.Reset()
		robust.NativeRestarts.Reset()
	}
}

// --- Snapshots ---

// TriggerSnapshot is one trigger series at a point in time.
type TriggerSnapshot struct {
	Label    string            `json:"label,omitempty"`
	Relation string            `json:"relation"`
	Op       string            `json:"op"` // "insert" | "delete"
	Count    uint64            `json:"count"`
	Errors   uint64            `json:"errors"`
	Latency  HistogramSnapshot `json:"latency_ns"`
}

// MapSnapshot is one map's gauges at a point in time.
type MapSnapshot struct {
	Label       string `json:"label,omitempty"`
	Name        string `json:"name"`
	Layout      string `json:"layout"`
	Entries     int64  `json:"entries"`
	Peak        int64  `json:"peak"`
	ApproxBytes uint64 `json:"approx_bytes"`
}

// WALSnapshot is the durability series at a point in time.
type WALSnapshot struct {
	Appends         uint64            `json:"appends"`
	AppendedBytes   uint64            `json:"appended_bytes"`
	Syncs           uint64            `json:"syncs"`
	SyncNs          HistogramSnapshot `json:"sync_ns"`
	Checkpoints     uint64            `json:"checkpoints"`
	CheckpointNs    HistogramSnapshot `json:"checkpoint_ns"`
	CheckpointBytes uint64            `json:"checkpoint_bytes"`
	Recoveries      uint64            `json:"recoveries"`
	ReplayedRecords uint64            `json:"replayed_records"`
	GroupCommits    uint64            `json:"group_commits"`
	GroupSize       HistogramSnapshot `json:"group_size"`
}

// RobustSnapshot is the overload/failure-isolation series at a point in
// time.
type RobustSnapshot struct {
	ShedRequests   uint64 `json:"shed_requests"`
	ShedEvents     uint64 `json:"shed_events"`
	ConnRejects    uint64 `json:"conn_rejects"`
	IdleCloses     uint64 `json:"idle_closes"`
	Quarantines    uint64 `json:"quarantines"`
	NativeRestarts uint64 `json:"native_restarts"`
}

// HeapSnapshot is the process-level memory picture backing the "bytes"
// side of the map telemetry (Go runtime MemStats).
type HeapSnapshot struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	NumGC          uint32 `json:"num_gc"`
	PauseTotalNs   uint64 `json:"gc_pause_total_ns"`
}

// Snapshot is a full, serializable view of a Sink.
type Snapshot struct {
	TakenAt        time.Time         `json:"taken_at"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Events         uint64            `json:"events_total"`
	EventsPerSec   float64           `json:"events_per_sec"`
	SampleInterval uint64            `json:"latency_sample_interval"`
	Triggers       []TriggerSnapshot `json:"triggers"`
	Maps           []MapSnapshot     `json:"maps"`
	WAL            *WALSnapshot      `json:"wal,omitempty"`
	Robust         *RobustSnapshot   `json:"robust,omitempty"`
	Queries        []QuerySnapshot   `json:"queries,omitempty"`
	Heap           HeapSnapshot      `json:"heap"`
}

// Snapshot materializes the sink's current state. Each cell is read
// atomically; the set is not a transaction (skew is bounded by events in
// flight during the call). Safe to call concurrently with recording.
func (s *Sink) Snapshot() *Snapshot {
	now := time.Now()
	s.mu.Lock()
	up := now.Sub(s.start).Seconds()
	triggers := append([]*TriggerStats(nil), s.triggers...)
	maps := append([]*MapStats(nil), s.maps...)
	queries := append([]*QueryStats(nil), s.queries...)
	wal, robust := s.wal, s.robust
	s.mu.Unlock()
	snap := &Snapshot{
		TakenAt:        now,
		UptimeSeconds:  up,
		SampleInterval: s.sampleMask + 1,
	}
	// The event total: each event fires at most one trigger per engine.
	var events uint64
	for _, t := range triggers {
		op := "delete"
		if t.Insert {
			op = "insert"
		}
		count := t.Count.Load()
		events += count
		snap.Triggers = append(snap.Triggers, TriggerSnapshot{
			Label:    t.Label,
			Relation: t.Relation,
			Op:       op,
			Count:    count,
			Errors:   t.Errors.Load(),
			Latency:  t.Latency.Snapshot(),
		})
	}
	snap.Events = events
	if up > 0 {
		snap.EventsPerSec = float64(snap.Events) / up
	}
	sort.Slice(snap.Triggers, func(i, j int) bool {
		a, b := snap.Triggers[i], snap.Triggers[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Relation != b.Relation {
			return a.Relation < b.Relation
		}
		return a.Op < b.Op
	})
	for _, m := range maps {
		snap.Maps = append(snap.Maps, MapSnapshot{
			Label:       m.Label,
			Name:        m.Name,
			Layout:      m.Layout,
			Entries:     m.Entries.Load(),
			Peak:        m.Peak.Load(),
			ApproxBytes: m.ApproxBytes(),
		})
	}
	sort.Slice(snap.Maps, func(i, j int) bool {
		a, b := snap.Maps[i], snap.Maps[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Name < b.Name
	})
	for _, q := range queries {
		snap.Queries = append(snap.Queries, QuerySnapshot{
			Label:          q.Label,
			CompileSeconds: float64(q.CompileNs.Load()) / 1e9,
			CatchupEvents:  q.CatchupEvents.Load(),
		})
	}
	sort.Slice(snap.Queries, func(i, j int) bool { return snap.Queries[i].Label < snap.Queries[j].Label })
	if wal != nil {
		snap.WAL = &WALSnapshot{
			Appends:         wal.Appends.Load(),
			AppendedBytes:   wal.AppendedBytes.Load(),
			Syncs:           wal.Syncs.Load(),
			SyncNs:          wal.SyncNs.Snapshot(),
			Checkpoints:     wal.Checkpoints.Load(),
			CheckpointNs:    wal.CheckpointNs.Snapshot(),
			CheckpointBytes: wal.CheckpointBytes.Load(),
			Recoveries:      wal.Recoveries.Load(),
			ReplayedRecords: wal.ReplayedRecords.Load(),
			GroupCommits:    wal.GroupCommits.Load(),
			GroupSize:       wal.GroupSize.Snapshot(),
		}
	}
	if robust != nil {
		snap.Robust = &RobustSnapshot{
			ShedRequests:   robust.ShedRequests.Load(),
			ShedEvents:     robust.ShedEvents.Load(),
			ConnRejects:    robust.ConnRejects.Load(),
			IdleCloses:     robust.IdleCloses.Load(),
			Quarantines:    robust.Quarantines.Load(),
			NativeRestarts: robust.NativeRestarts.Load(),
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.Heap = HeapSnapshot{
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
		PauseTotalNs:   ms.PauseTotalNs,
	}
	return snap
}

// Lines renders the snapshot as the dbtserver METRICS reply body: one
// "key value..." line per series, machine-splittable on spaces.
func (s *Snapshot) Lines() []string {
	var out []string
	out = append(out,
		fmt.Sprintf("uptime_seconds %.3f", s.UptimeSeconds),
		fmt.Sprintf("events_total %d", s.Events),
		fmt.Sprintf("events_per_sec %.1f", s.EventsPerSec),
		fmt.Sprintf("latency_sample_interval %d", s.SampleInterval),
		fmt.Sprintf("heap_alloc_bytes %d heap_objects %d num_gc %d", s.Heap.HeapAllocBytes, s.Heap.HeapObjects, s.Heap.NumGC),
	)
	for _, t := range s.Triggers {
		label := t.Label
		if label == "" {
			label = "-"
		}
		out = append(out, fmt.Sprintf(
			"trigger %s %s %s count=%d errors=%d lat_samples=%d lat_mean_ns=%.0f lat_p50_ns=%d lat_p99_ns=%d",
			label, t.Relation, t.Op, t.Count, t.Errors,
			t.Latency.Count, t.Latency.Mean(), t.Latency.Quantile(0.50), t.Latency.Quantile(0.99)))
	}
	for _, m := range s.Maps {
		label := m.Label
		if label == "" {
			label = "-"
		}
		out = append(out, fmt.Sprintf("map %s %s entries=%d peak=%d approx_bytes=%d layout=%s",
			label, m.Name, m.Entries, m.Peak, m.ApproxBytes, m.Layout))
	}
	for _, q := range s.Queries {
		out = append(out, fmt.Sprintf("query %s compile_seconds=%.6f catchup_events=%d",
			q.Label, q.CompileSeconds, q.CatchupEvents))
	}
	if w := s.WAL; w != nil {
		out = append(out, fmt.Sprintf(
			"wal appends=%d appended_bytes=%d syncs=%d sync_p99_ns=%d checkpoints=%d ckpt_mean_ns=%.0f ckpt_bytes=%d recoveries=%d replayed=%d group_commits=%d group_p50=%d group_p99=%d",
			w.Appends, w.AppendedBytes, w.Syncs, w.SyncNs.Quantile(0.99),
			w.Checkpoints, w.CheckpointNs.Mean(), w.CheckpointBytes,
			w.Recoveries, w.ReplayedRecords,
			w.GroupCommits, w.GroupSize.Quantile(0.50), w.GroupSize.Quantile(0.99)))
	}
	if r := s.Robust; r != nil {
		out = append(out, fmt.Sprintf(
			"robust shed_requests=%d shed_events=%d conn_rejects=%d idle_closes=%d quarantines=%d native_restarts=%d",
			r.ShedRequests, r.ShedEvents, r.ConnRejects, r.IdleCloses, r.Quarantines, r.NativeRestarts))
	}
	return out
}
