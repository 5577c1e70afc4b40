package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// Overload protection and failure isolation tests: admission control,
// connection guards, scanner-error surfacing, graceful shutdown under
// load, and the chaos matrix gating the quarantine subsystem.

func startServerOpts(t *testing.T, sql string, opts Options) (*Server, *Client) {
	t.Helper()
	cat := schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"))
	s, err := NewWithOptions(sql, cat, opts)
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

// TestServerOverloadShedding: with MaxPending set and a slow apply path,
// concurrent producers that outrun the committer are shed with a
// structured overloaded error carrying a retry hint, while admitted
// requests still succeed; the shed counters move.
func TestServerOverloadShedding(t *testing.T) {
	s, _ := startServerOpts(t, "select B, sum(A) from R group by B",
		Options{MaxPending: 2})
	addr := s.ln.Addr().String()

	runtime.SetChaosDelay("R", 3*time.Millisecond)
	defer runtime.ClearChaos()

	const producers = 6
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		sheds []string
		oks   int
	)
	evs := []stream.Event{
		stream.Ins("R", types.NewInt(1), types.NewInt(1)),
		stream.Ins("R", types.NewInt(2), types.NewInt(2)),
		stream.Ins("R", types.NewInt(3), types.NewInt(3)),
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				err := c.Batch(evs)
				mu.Lock()
				if err != nil {
					sheds = append(sheds, err.Error())
				} else {
					oks++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if oks == 0 {
		t.Fatal("every request was shed; admission control should admit an empty backlog")
	}
	if len(sheds) == 0 {
		t.Fatal("no request was shed despite MaxPending=2 and a slow apply path")
	}
	for _, msg := range sheds {
		if !strings.Contains(msg, "overloaded") || !strings.Contains(msg, "retry_after_ms=") {
			t.Fatalf("shed error %q lacks the structured overloaded/retry shape", msg)
		}
	}
	rs := s.Sink().Robust()
	if rs.ShedRequests.Load() == 0 || rs.ShedEvents.Load() == 0 {
		t.Fatalf("shed counters did not move: requests=%d events=%d",
			rs.ShedRequests.Load(), rs.ShedEvents.Load())
	}
}

// TestServerMaxConns: connections over the cap get one ERR line and are
// closed; a freed slot is reusable.
func TestServerMaxConns(t *testing.T) {
	s, c := startServerOpts(t, "select sum(A) from R", Options{MaxConns: 1})
	addr := s.ln.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("rejected connection gave no ERR line: %v", err)
	}
	if !strings.Contains(line, "too many connections") {
		t.Fatalf("reject line = %q", line)
	}
	if got := s.Sink().Robust().ConnRejects.Load(); got == 0 {
		t.Fatal("conn_rejects counter did not move")
	}

	// The admitted client still works, and closing it frees the slot.
	if err := c.Insert("R", types.NewInt(1), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Insert("R", types.NewInt(1), types.NewInt(2)); err == nil {
			c2.Close()
			break
		}
		c2.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after the admitted client closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerIdleTimeout: a silent connection is closed after the idle
// deadline with a final explanatory ERR line, and the counter moves.
func TestServerIdleTimeout(t *testing.T) {
	s, _ := startServerOpts(t, "select sum(A) from R",
		Options{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("idle close gave no final line: %v", err)
	}
	if !strings.Contains(line, "idle timeout") {
		t.Fatalf("final line = %q, want idle timeout", line)
	}
	if got := s.Sink().Robust().IdleCloses.Load(); got == 0 {
		t.Fatal("idle_closes counter did not move")
	}
}

// TestServerOversizedLine: a line past the scanner's 1 MiB token limit
// surfaces as a final "ERR read: ..." line instead of a silent close.
func TestServerOversizedLine(t *testing.T) {
	s, _ := startServerOpts(t, "select sum(A) from R", Options{})
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Repeat([]byte{'A'}, 2<<20)); err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("\n"))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("oversized line gave no final ERR: %v", err)
	}
	if !strings.HasPrefix(line, "ERR read:") {
		t.Fatalf("final line = %q, want ERR read: ...", line)
	}
}

// TestServerGracefulShutdownUnderLoad: Close during active ingest drains
// in-flight requests (every acked insert really committed) and returns
// promptly instead of deadlocking on live connections. Run with -race.
func TestServerGracefulShutdownUnderLoad(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"))
	s, err := New("select sum(A) from R", cat)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const producers = 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				if err := c.Insert("R", types.NewInt(1), types.NewInt(int64(p))); err != nil {
					return // server shut down under us; fine
				}
			}
		}(p)
	}

	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() {
		wg.Wait() // connections must drain before Close can finish
		closed <- nil
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("producers wedged during shutdown window")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after load: %v", err)
	}
}

// --- chaos matrix -----------------------------------------------------

func chaosCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("A", "x:int", "g:int"),
		schema.NewRelation("B", "x:int", "g:int"),
		schema.NewRelation("C", "x:int", "g:int"),
		schema.NewRelation("D", "x:int", "g:int"),
	)
}

const (
	chaosMainSQL = "select g, sum(x) from D group by g" // healthy tenant
	chaosQASQL   = "select g, sum(x) from A group by g" // quota breacher
	chaosQBSQL   = "select sum(x) from B"               // panicker
	chaosQCSQL   = "select g, sum(x) from C group by g" // healthy tenant
)

// TestServerChaosMatrix is the acceptance gate for failure isolation: four
// live queries — a quota breacher, a panicker, and two healthy tenants —
// take faults mid-stream while every producer request is acked. The
// healthy queries' final state is bitwise identical to a fault-free twin
// fed the same stream; quarantine survives crash/recovery; a quarantined
// query revives via REGISTER catch-up.
func TestServerChaosMatrix(t *testing.T) {
	dir := t.TempDir()
	quota := engine.Quota{MaxEntries: 8}
	s, err := NewWithOptions(chaosMainSQL, chaosCatalog(), Options{WALDir: dir, Quota: quota})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()
	for name, sql := range map[string]string{"qa": chaosQASQL, "qb": chaosQBSQL, "qc": chaosQCSQL} {
		if err := s.Register(name, sql); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer runtime.ClearChaos()

	// Every event is recorded so the fault-free twin replays the exact
	// acked stream.
	var log []stream.Event
	send := func(rel string, x, g int64) {
		t.Helper()
		ev := stream.Ins(rel, types.NewInt(x), types.NewInt(g))
		if err := c.Insert(rel, ev.Args...); err != nil {
			t.Fatalf("insert %s(%d,%d) not acked: %v", rel, x, g, err)
		}
		log = append(log, ev)
	}
	stateOf := func(srv *Server, name string) engine.QueryInfo {
		t.Helper()
		for _, info := range srv.reg.Infos() {
			if info.Name == name {
				return info
			}
		}
		t.Fatalf("query %q not listed", name)
		return engine.QueryInfo{}
	}

	// Phase 1 — all four tenants healthy. Three distinct groups per query
	// stays under the 8-entry quota.
	for i := int64(0); i < 10; i++ {
		for _, rel := range []string{"A", "B", "C", "D"} {
			send(rel, i, i%3)
		}
	}

	// Phase 2 — qb panics on its next event. The producer is still acked:
	// the event was WAL'd and applied by every healthy engine.
	runtime.SetChaosPanic("B", 0)
	send("B", 100, 1)
	runtime.ClearChaos()
	if info := stateOf(s, "qb"); info.State != engine.StateQuarantined ||
		!strings.Contains(info.Reason, "trigger panic") {
		t.Fatalf("qb after panic: %+v", info)
	}
	send("B", 101, 1) // quarantined-relation traffic still acks

	// Phase 3 — qa outgrows its map quota on distinct groups.
	for i := int64(0); i < 16; i++ {
		send("A", i, 100+i)
	}
	if info := stateOf(s, "qa"); info.State != engine.StateQuarantined ||
		!strings.Contains(info.Reason, "map-entries") {
		t.Fatalf("qa after quota breach: %+v", info)
	}

	for _, name := range []string{"main", "qc"} {
		if st := stateOf(s, name).State; st != engine.StateLive {
			t.Fatalf("healthy tenant %s state = %v, want live", name, st)
		}
	}
	if got := s.Sink().Robust().Quarantines.Load(); got != 2 {
		t.Fatalf("quarantines counter = %d, want 2", got)
	}

	// Fault-free twin: plain engines, no quota, fed the identical acked
	// stream. Chaos is process-global, so it is cleared before this runs.
	runtime.ClearChaos()
	twin, err := New(chaosMainSQL, chaosCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for name, sql := range map[string]string{"qb": chaosQBSQL, "qc": chaosQCSQL} {
		if err := twin.Register(name, sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range log {
		if err := twin.commit([]stream.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"main", "qc"} {
		got := snapshotOf(t, queryEngineOf(t, s, name))
		want := snapshotOf(t, queryEngineOf(t, twin, name))
		if got != want {
			t.Fatalf("healthy tenant %s diverged from fault-free twin over the acked prefix", name)
		}
	}

	// Crash and recover: quarantine state survives (via WAL quarantine
	// records and the checkpoint container), healthy tenants replay to the
	// same bitwise state.
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	s2, err := NewWithOptions(chaosMainSQL, chaosCatalog(),
		Options{WALDir: dir, Recover: true, Quota: quota})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for name, reason := range map[string]string{"qa": "map-entries", "qb": "trigger panic"} {
		info := stateOf(s2, name)
		if info.State != engine.StateQuarantined || !strings.Contains(info.Reason, reason) {
			t.Fatalf("%s after recovery: %+v, want quarantined with %q", name, info, reason)
		}
	}
	for _, name := range []string{"main", "qc"} {
		got := snapshotOf(t, queryEngineOf(t, s2, name))
		want := snapshotOf(t, queryEngineOf(t, twin, name))
		if got != want {
			t.Fatalf("recovered tenant %s diverged from fault-free twin", name)
		}
	}

	// Revive: REGISTER under the quarantined name catches up from the
	// retained WAL and converges with the twin (which never faulted).
	if err := s2.Register("qb", chaosQBSQL); err != nil {
		t.Fatalf("revive qb: %v", err)
	}
	if st := stateOf(s2, "qb").State; st != engine.StateLive {
		t.Fatalf("revived qb state = %v, want live", st)
	}
	if got, want := snapshotOf(t, queryEngineOf(t, s2, "qb")),
		snapshotOf(t, queryEngineOf(t, twin, "qb")); got != want {
		t.Fatal("revived qb diverged from fault-free twin after catch-up")
	}
}

// FuzzServerCommand throws arbitrary bytes at the command loop: whatever
// arrives, the server must answer with protocol lines (never crash) and
// stay healthy for the next connection.
func FuzzServerCommand(f *testing.F) {
	cat := schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"))
	s, err := New("select B, sum(A) from R group by B", cat)
	if err != nil {
		f.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	f.Add("INSERT R 1 2")
	f.Add("DELETE R 1 2")
	f.Add("BATCH 2\nINSERT R 1 2\nINSERT R 3 4")
	f.Add("BATCH 99")
	f.Add("RESULT\nSTATS\nLIST\nPROGRAM")
	f.Add("REGISTER q select sum(A) from R")
	f.Add("INSERT R \x00\xff not-a-number")
	f.Add("CHECKPOINT\nRESET\nUNREGISTER main")
	f.Add(strings.Repeat("INSERT R 1 ", 40))

	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 4096 {
			t.Skip("bounding per-iteration work")
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("server no longer accepting: %v", err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		fmt.Fprintf(conn, "%s\nQUIT\n", input)
		// Drain whatever the server says until it closes; the only failure
		// mode is the server dying (next iteration's Dial would catch it)
		// or wedging (the deadline would catch it).
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
	})
}

// BenchmarkOverloadShedding measures ack latency and shed fraction as the
// producer count scales past the committer's drain rate. SUITE=overload in
// scripts/bench.sh records p99_ack_ns and shed_frac at 1x/2x/4x load.
func BenchmarkOverloadShedding(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("load%dx", mult), func(b *testing.B) {
			cat := schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"))
			s, err := NewWithOptions("select B, sum(A) from R group by B", cat,
				Options{MaxPending: 16})
			if err != nil {
				b.Fatal(err)
			}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			runtime.SetChaosDelay("R", 200*time.Microsecond)
			defer runtime.ClearChaos()

			producers := 2 * mult
			perProducer := b.N / producers
			if perProducer == 0 {
				perProducer = 1
			}
			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				lats []time.Duration
				shed int
			)
			b.ResetTimer()
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					c, err := Dial(addr)
					if err != nil {
						b.Error(err)
						return
					}
					defer c.Close()
					// Batches of 4: the backlog a producer can create is its
					// in-flight batch, so total pending scales with
					// producers x batch and crosses MaxPending at high load.
					evs := make([]stream.Event, 4)
					for i := range evs {
						evs[i] = stream.Ins("R", types.NewInt(int64(p)), types.NewInt(int64(i)))
					}
					local := make([]time.Duration, 0, perProducer)
					localShed := 0
					for i := 0; i < perProducer; i++ {
						start := time.Now()
						err := c.Batch(evs)
						local = append(local, time.Since(start))
						if err != nil {
							if strings.Contains(err.Error(), "overloaded") {
								localShed++
							} else {
								b.Error(err)
								return
							}
						}
					}
					mu.Lock()
					lats = append(lats, local...)
					shed += localShed
					mu.Unlock()
				}(p)
			}
			wg.Wait()
			b.StopTimer()

			if len(lats) == 0 {
				return
			}
			// Insertion-sorted copy is overkill-free at bench sizes.
			for i := 1; i < len(lats); i++ {
				for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
					lats[j], lats[j-1] = lats[j-1], lats[j]
				}
			}
			p99 := lats[len(lats)*99/100]
			b.ReportMetric(float64(p99.Nanoseconds()), "p99_ack_ns")
			b.ReportMetric(float64(shed)/float64(len(lats)), "shed_frac")
		})
	}
}
