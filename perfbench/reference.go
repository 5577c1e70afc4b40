package main

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/server"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// parseEvent turns one protocol delta line into an event, the way the
// server's parser does (server.ParseValue per field, kinds from the
// catalog).
func parseEvent(cat *schema.Catalog, line string) (stream.Event, error) {
	op, rel, vals := splitEventLine(line)
	r, ok := cat.Relation(rel)
	if !ok {
		return stream.Event{}, fmt.Errorf("unknown relation %q", rel)
	}
	parts := strings.Split(vals, "|")
	if len(parts) != r.Arity() {
		return stream.Event{}, fmt.Errorf("%s expects %d values, got %d", rel, r.Arity(), len(parts))
	}
	args := make(types.Tuple, len(parts))
	for i, p := range parts {
		v, err := server.ParseValue(r.Columns[i].Type, p)
		if err != nil {
			return stream.Event{}, fmt.Errorf("column %s: %w", r.Columns[i].Name, err)
		}
		args[i] = v
	}
	return stream.Event{Op: op, Relation: rel, Args: args}, nil
}

// reference computes every query's expected RESULT from the requests the
// server acknowledged, without replaying their history: it nets the
// inserts and deletes down to the final tables, then loads only those
// rows into a fresh single-threaded engine per distinct query. Agreement
// with the server therefore checks that incremental maintenance through
// every delete, across connections and through the WAL, lands on the same
// answer as evaluating the final database once.
func reference(w *workload, reqs [][]byte) (map[string][]string, error) {
	type row struct {
		line  string
		count int
	}
	net := map[string]*row{}
	for _, req := range reqs {
		for _, line := range eventLines(req) {
			op, rel, vals := splitEventLine(line)
			k := rel + " " + vals
			r := net[k]
			if r == nil {
				r = &row{line: "INSERT " + k}
				net[k] = r
			}
			if op == stream.Insert {
				r.count++
			} else {
				r.count--
			}
		}
	}
	keys := make([]string, 0, len(net))
	for k, r := range net {
		if r.count < 0 {
			return nil, fmt.Errorf("reference: %s deleted more often than inserted", k)
		}
		if r.count > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var final []stream.Event
	for _, k := range keys {
		ev, err := parseEvent(w.cat, net[k].line)
		if err != nil {
			return nil, err
		}
		for i := 0; i < net[k].count; i++ {
			final = append(final, ev)
		}
	}

	bySQL := map[string][]string{}
	out := map[string][]string{}
	for _, q := range w.queries {
		if res, ok := bySQL[q.sql]; ok {
			out[q.name] = res
			continue
		}
		pq, err := engine.Prepare(q.sql, w.cat)
		if err != nil {
			return nil, err
		}
		t, err := engine.NewToaster(pq, runtime.Options{NoMetrics: true})
		if err != nil {
			return nil, err
		}
		if err := t.OnEventBatch(final); err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		res, err := t.Results()
		if err != nil {
			return nil, err
		}
		lines := renderResult(res)
		bySQL[q.sql] = lines
		out[q.name] = lines
	}
	return out, nil
}

// renderResult prints a result as the server's RESULT body does (header,
// then '|'-joined rows), rows sorted so row order cannot matter.
func renderResult(res *engine.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	return normalize(append([]string{strings.Join(res.Columns, "|")}, rows...))
}

// normalize sorts a RESULT body's rows, keeping the header first, so row
// order cannot matter.
func normalize(body []string) []string {
	if len(body) == 0 {
		return nil
	}
	rows := append([]string(nil), body[1:]...)
	sort.Strings(rows)
	return append([]string{body[0]}, rows...)
}
