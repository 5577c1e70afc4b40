package metrics

import "sync"

// Per-query lifecycle series and the structured trace ring. Both exist for
// the dynamic query registry: registrations are observable events (how
// long did the compile take, how many WAL records did catch-up replay),
// and individual trigger firings — already latency-sampled on the 1-in-N
// clock — can be exported as structured records instead of only feeding
// a histogram.

// QueryStats is one registered query's lifecycle series. CompileNs and
// CatchupEvents are set once per registration (gauges, not rates): they
// survive Reset, which zeroes stream-rate series between bakeoff phases.
type QueryStats struct {
	Label string
	// CompileNs is the wall-clock nanoseconds spent compiling the query's
	// trigger program and constructing its engine.
	CompileNs Gauge
	// CatchupEvents counts the WAL records replayed to bring the query
	// from its registration point to the live watermark.
	CatchupEvents Gauge
}

// Query registers (or returns the existing) lifecycle series for one
// registered query.
func (s *Sink) Query(label string) *QueryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queryIdx[label]; ok {
		return q
	}
	q := &QueryStats{Label: label}
	s.queryIdx[label] = q
	s.queries = append(s.queries, q)
	return q
}

// DropLabel removes every series scoped to the given label (triggers,
// maps, query lifecycle) — the metrics half of UNREGISTER.
// Handles already held by a discarded engine keep working; they just no
// longer appear in snapshots.
func (s *Sink) DropLabel(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keepT := s.triggers[:0]
	for _, t := range s.triggers {
		if t.Label == label {
			delete(s.trigIdx, trigKey(t.Label, t.Relation, t.Insert))
			continue
		}
		keepT = append(keepT, t)
	}
	s.triggers = keepT
	keepM := s.maps[:0]
	for _, m := range s.maps {
		if m.Label == label {
			delete(s.mapIdx, m.Label+"\x00"+m.Name)
			continue
		}
		keepM = append(keepM, m)
	}
	s.maps = keepM
	if _, ok := s.queryIdx[label]; ok {
		delete(s.queryIdx, label)
		keepQ := s.queries[:0]
		for _, q := range s.queries {
			if q.Label != label {
				keepQ = append(keepQ, q)
			}
		}
		s.queries = keepQ
	}
}

// QuerySnapshot is one query's lifecycle series at a point in time.
type QuerySnapshot struct {
	Label          string  `json:"label"`
	CompileSeconds float64 `json:"compile_seconds"`
	CatchupEvents  int64   `json:"catchup_events"`
}

// --- Structured trace export ---

// TraceRingSize is the trace buffer capacity. The ring sits behind the
// latency sampling clock (one record per sampled firing), so at the
// default 1-in-64 interval it holds the last ~16k events' worth of
// samples; a fixed size keeps the export bounded no matter the stream.
const TraceRingSize = 256

// TraceEvent is one sampled trigger firing as a structured record.
type TraceEvent struct {
	// Seq numbers sampled firings monotonically across the sink's
	// lifetime; gaps after a drain or overwrite are visible to consumers.
	Seq      uint64 `json:"seq"`
	Label    string `json:"label,omitempty"`
	Relation string `json:"relation"`
	Op       string `json:"op"` // "insert" | "delete"
	// LatencyNs is the firing's measured wall-clock latency.
	LatencyNs int64 `json:"latency_ns"`
	// UnixNano timestamps the firing's start.
	UnixNano int64 `json:"unix_nano"`
}

type traceRing struct {
	mu  sync.Mutex
	buf [TraceRingSize]TraceEvent
	n   uint64 // total records ever written (monotonic Seq source)
}

// RecordTrace appends one sampled firing to the trace ring, overwriting
// the oldest record when full. Callers invoke it only on the sampled
// path (Sink.Sampled), so the mutex is touched once per sample interval,
// not per event.
func (s *Sink) RecordTrace(label, rel string, insert bool, latencyNs, unixNano int64) {
	op := "delete"
	if insert {
		op = "insert"
	}
	t := &s.trace
	t.mu.Lock()
	t.n++
	t.buf[t.n%TraceRingSize] = TraceEvent{
		Seq:       t.n,
		Label:     label,
		Relation:  rel,
		Op:        op,
		LatencyNs: latencyNs,
		UnixNano:  unixNano,
	}
	t.mu.Unlock()
}

// Trace drains the ring: it returns the buffered records in Seq order and
// clears them, so consecutive drains never repeat a record. Records
// overwritten before a drain are simply absent (visible as Seq gaps).
func (s *Sink) Trace() []TraceEvent {
	t := &s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, TraceRingSize)
	lo := uint64(1)
	if t.n >= TraceRingSize {
		lo = t.n - TraceRingSize + 1
	}
	for seq := lo; seq <= t.n; seq++ {
		if ev := t.buf[seq%TraceRingSize]; ev.Seq == seq {
			out = append(out, ev)
		}
	}
	t.buf = [TraceRingSize]TraceEvent{}
	return out
}
