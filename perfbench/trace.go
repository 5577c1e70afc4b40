package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span (-1 for a root).
type span struct {
	start, end int64 // ns since the tracer's base
	parent     int32
	req        int32
	name       uint16
}

// tracer records spans in memory; they are written out once, at the end.
type tracer struct {
	base  time.Time
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: map[string]uint16{}}
}

// id interns a span name; call it outside timed loops.
func (t *tracer) id(name string) uint16 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) begin(name uint16, parent, req int) int {
	t.spans = append(t.spans, span{
		start: int64(time.Since(t.base)), parent: int32(parent), req: int32(req), name: name,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = int64(time.Since(t.base)) }

func (t *tracer) dur(i int) int64 { return t.spans[i].end - t.spans[i].start }

// layerTotal sums one span name's self time (its duration minus the part
// its children cover; children never overlap, the replay is sequential).
type layerTotal struct {
	count int
	self  int64
}

func (t *tracer) selfTimes() map[string]layerTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]layerTotal{}
	for i, s := range t.spans {
		lt := out[t.names[s.name]]
		lt.count++
		lt.self += s.end - s.start - child[i]
		out[t.names[s.name]] = lt
	}
	return out
}

// write dumps spans as tab-separated "index name start_ns end_ns parent
// req" lines. Request spans past maxReq are skipped to bound the file;
// spans outside any request are always kept.
func (t *tracer) write(path string, maxReq int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range t.spans {
		if int(s.req) >= maxReq {
			continue
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, t.names[s.name], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
