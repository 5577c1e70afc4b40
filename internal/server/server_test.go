package server

import (
	"strings"
	"sync"
	"testing"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

func startServer(t *testing.T, sql string) (*Server, *Client) {
	t.Helper()
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("sales", "region:string", "amount:float"),
	)
	s, err := New(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestServerInsertAndResult(t *testing.T) {
	_, c := startServer(t, "select B, sum(A) from R group by B")
	if err := c.Insert("R", types.NewInt(5), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("R", types.NewInt(3), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("R", types.NewInt(5), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || len(rows) != 1 {
		t.Fatalf("cols=%v rows=%v", cols, rows)
	}
	if rows[0][0] != "1" || rows[0][1] != "3" {
		t.Errorf("row = %v", rows[0])
	}
}

func TestServerBatch(t *testing.T) {
	_, c := startServer(t, "select B, sum(A) from R group by B")
	evs := []stream.Event{
		stream.Ins("R", types.NewInt(5), types.NewInt(1)),
		stream.Ins("R", types.NewInt(3), types.NewInt(1)),
		stream.Ins("R", types.NewInt(7), types.NewInt(2)),
		stream.Del("R", types.NewInt(5), types.NewInt(1)),
	}
	if err := c.Batch(evs); err != nil {
		t.Fatal(err)
	}
	events, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if events != len(evs) {
		t.Errorf("events = %d, want %d", events, len(evs))
	}
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "1" || rows[0][1] != "3" || rows[1][0] != "2" || rows[1][1] != "7" {
		t.Errorf("rows = %v", rows)
	}
	// An empty batch is a no-op.
	if err := c.Batch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerBatchErrors(t *testing.T) {
	_, c := startServer(t, "select sum(A) from R")
	// A bad line inside a batch reports an error but leaves the protocol
	// in sync: the next command still works.
	err := c.Batch([]stream.Event{
		stream.Ins("R", types.NewInt(1), types.NewInt(2)),
		stream.Ins("Nope", types.NewInt(1)),
	})
	if err == nil {
		t.Error("bad batch accepted")
	}
	if err := c.Insert("R", types.NewInt(1), types.NewInt(2)); err != nil {
		t.Fatalf("protocol out of sync after batch error: %v", err)
	}
	if _, _, err := c.roundTrip("BATCH x"); err == nil {
		t.Error("malformed batch count accepted")
	}
}

func TestServerStringValues(t *testing.T) {
	_, c := startServer(t, "select region, sum(amount) from sales group by region")
	if err := c.Insert("sales", types.NewString("new york"), types.NewFloat(2.5)); err != nil {
		t.Fatal(err)
	}
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "new york" || rows[0][1] != "2.5" {
		t.Errorf("rows = %v", rows)
	}
}

func TestServerStatsAndProgram(t *testing.T) {
	_, c := startServer(t, "select sum(A) from R")
	if err := c.Insert("R", types.NewInt(1), types.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	events, entries, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if events != 1 || entries == 0 {
		t.Errorf("stats = %d %d", events, entries)
	}
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog, "on +R") {
		t.Errorf("program = %q", prog)
	}
}

func TestServerErrors(t *testing.T) {
	_, c := startServer(t, "select sum(A) from R")
	if err := c.Insert("Nope", types.NewInt(1)); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := c.Insert("R", types.NewInt(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	// Malformed literal.
	if _, _, err := c.roundTrip("INSERT R x|1"); err == nil {
		t.Error("malformed int accepted")
	}
	if _, _, err := c.roundTrip("FROBNICATE"); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestServerQuit(t *testing.T) {
	_, c := startServer(t, "select sum(A) from R")
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s, _ := startServer(t, "select sum(A) from R")
	addr := s.ln.Addr().String()
	const clients, per = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				if err := c.Insert("R", types.NewInt(1), types.NewInt(0)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "200" {
		t.Errorf("concurrent total = %v, want 200", rows)
	}
}

func TestServerRegisterMultipleQueries(t *testing.T) {
	_, c := startServer(t, "select sum(A) from R")
	if err := c.Register("counts", "select B, count(*) from R group by B"); err != nil {
		t.Fatal(err)
	}
	// Duplicate names rejected; broken SQL rejected.
	if err := c.Register("counts", "select sum(A) from R"); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := c.Register("bad", "select nope from R"); err == nil {
		t.Error("broken SQL accepted")
	}
	if err := c.Insert("R", types.NewInt(5), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("R", types.NewInt(3), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	// Both views see the same deltas.
	_, rows, err := c.ResultOf("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "8" {
		t.Errorf("main rows = %v", rows)
	}
	_, rows, err = c.ResultOf("counts")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != "2" {
		t.Errorf("counts rows = %v", rows)
	}
	qs, err := c.Queries()
	if err != nil || len(qs) != 2 {
		t.Errorf("queries = %v, %v", qs, err)
	}
	if _, _, err := c.ResultOf("ghost"); err == nil {
		t.Error("unknown query name accepted")
	}
}

func TestParseValue(t *testing.T) {
	if v, err := ParseValue(types.KindInt, " 42 "); err != nil || v.Int() != 42 {
		t.Errorf("int: %v %v", v, err)
	}
	if v, err := ParseValue(types.KindFloat, "2.5"); err != nil || v.Float() != 2.5 {
		t.Errorf("float: %v %v", v, err)
	}
	if v, err := ParseValue(types.KindString, "a b"); err != nil || v.Str() != "a b" {
		t.Errorf("string: %v %v", v, err)
	}
	if v, err := ParseValue(types.KindBool, "true"); err != nil || !v.Bool() {
		t.Errorf("bool: %v %v", v, err)
	}
	if _, err := ParseValue(types.KindInt, "nope"); err == nil {
		t.Error("bad int accepted")
	}
}

// TestServerSharded drives one group-by query through inserts, a delete,
// STATS and a mid-stream REGISTER, then disconnects and requires a clean
// Close. (The name dates from when this test ran on the removed sharded
// runtime.)
func TestServerSharded(t *testing.T) {
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
	)
	s, err := New("select B, sum(A) from R group by B", cat)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.Insert("R", types.NewInt(int64(i)), types.NewInt(int64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("R", types.NewInt(0), types.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || len(rows) != 5 {
		t.Fatalf("cols=%v rows=%v", cols, rows)
	}
	// Group 0 holds A = 0,5,...,45; deleting (0,0) leaves the sum at 225.
	if rows[0][0] != "0" || rows[0][1] != "225" {
		t.Errorf("group 0 row = %v", rows[0])
	}
	events, entries, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if events != 51 || entries == 0 {
		t.Errorf("stats = %d events, %d entries", events, entries)
	}
	if err := c.Register("second", "select sum(A) from R"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("R", types.NewInt(7), types.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	if _, rows, err = c.ResultOf("second"); err != nil {
		t.Fatal(err)
	} else if len(rows) != 1 || rows[0][0] != "7" {
		t.Errorf("second query rows = %v", rows)
	}
	// Close waits for connections to drain, so disconnect first.
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerIngestFault sends protocol lines whose literals contradict the
// schema (string into an int column) and asserts the full chain survives:
// the command yields ERR, the connection stays usable, and the engine keeps
// producing correct results afterwards.
func TestServerIngestFault(t *testing.T) {
	_, c := startServer(t, "select B, sum(A) from R group by B")
	if _, _, err := c.roundTrip("INSERT R abc|1"); err == nil {
		t.Error("string into int column accepted")
	}
	if _, _, err := c.roundTrip("DELETE R 1|x"); err == nil {
		t.Error("bad literal in DELETE accepted")
	}
	// Extra separators read as extra fields: arity error, not a crash.
	if _, _, err := c.roundTrip("INSERT R 1|2|3"); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := c.Insert("R", types.NewInt(5), types.NewInt(1)); err != nil {
		t.Fatalf("connection unusable after faults: %v", err)
	}
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "5" {
		t.Errorf("rows after faults = %v", rows)
	}
}

// TestParseValueEdgeCases pins the trimming and separator semantics
// documented on ParseValue: every kind trims, an empty or all-blank field
// is the empty string, and '|' never reaches a literal (it is consumed by
// the tuple splitter first).
func TestParseValueEdgeCases(t *testing.T) {
	if v, _ := ParseValue(types.KindString, "  padded  "); v.Str() != "padded" {
		t.Errorf("string not trimmed: %q", v.Str())
	}
	if v, _ := ParseValue(types.KindString, ""); v.Str() != "" {
		t.Errorf("empty field: %q", v.Str())
	}
	if v, _ := ParseValue(types.KindString, "   "); v.Str() != "" {
		t.Errorf("all-blank field: %q", v.Str())
	}
	if v, _ := ParseValue(types.KindBool, " TRUE "); !v.Bool() {
		t.Error("bool not trimmed")
	}
	if _, err := ParseValue(types.KindFloat, " 2.5x "); err == nil {
		t.Error("trailing garbage accepted in float")
	}

	// Through the protocol: an empty string field and surrounding blanks.
	_, c := startServer(t, "select region, sum(amount) from sales group by region")
	if _, _, err := c.roundTrip("INSERT sales |2.5"); err != nil {
		t.Fatalf("empty string field rejected: %v", err)
	}
	if _, _, err := c.roundTrip("INSERT sales    west   | 1.5 "); err != nil {
		t.Fatalf("padded fields rejected: %v", err)
	}
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "" || rows[0][1] != "2.5" || rows[1][0] != "west" {
		t.Errorf("rows = %v", rows)
	}
	// A '|' inside a string literal cannot be escaped: it splits the tuple
	// and the line fails arity, cleanly.
	if _, _, err := c.roundTrip("INSERT sales a|b|1.5"); err == nil {
		t.Error("pipe-containing string accepted (should be an arity error)")
	}
}

// TestServerMetricsCommand: METRICS reports live counters by default and
// ERR when instrumentation is disabled.
func TestServerMetricsCommand(t *testing.T) {
	_, c := startServer(t, "select B, sum(A) from R group by B")
	for i := 0; i < 5; i++ {
		if err := c.Insert("R", types.NewInt(int64(i)), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	lines, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var sawEvents, sawTrigger, sawMap bool
	for _, l := range lines {
		switch {
		case l == "events_total 5":
			sawEvents = true
		case strings.HasPrefix(l, "trigger main R insert count=5"):
			sawTrigger = true
		case strings.HasPrefix(l, "map main "):
			sawMap = true
		}
	}
	if !sawEvents || !sawTrigger || !sawMap {
		t.Errorf("METRICS missing series (events=%v trigger=%v map=%v):\n%s",
			sawEvents, sawTrigger, sawMap, strings.Join(lines, "\n"))
	}

	// Disabled: METRICS is an error, ingestion is unaffected.
	cat := schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"))
	s, err := NewWithOptions("select sum(A) from R", cat, Options{NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	if _, err := c2.Metrics(); err == nil {
		t.Error("METRICS succeeded on a NoMetrics server")
	}
	if err := c2.Insert("R", types.NewInt(1), types.NewInt(2)); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsPerQueryLabels: registered queries appear as separate
// series labelled by query name.
func TestServerMetricsPerQueryLabels(t *testing.T) {
	_, c := startServer(t, "select sum(A) from R")
	if err := c.Register("counts", "select B, count(*) from R group by B"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("R", types.NewInt(1), types.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	lines, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "trigger main R insert count=1") ||
		!strings.Contains(text, "trigger counts R insert count=1") {
		t.Errorf("per-query trigger series missing:\n%s", text)
	}
}
