package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every dbtserver process this run started, so error paths
// and signals can still stop and reap them.
var procs struct {
	sync.Mutex
	live map[*serverProc]bool
}

// serverProc is one dbtserver child process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process is reaped
	err  error         // its exit status, set before done closes
}

// startServer launches dbtserver and waits for its "serving" line. The
// returned duration runs from process start until the server listens —
// after boot compilation and, with -recover, after recovery.
func startServer(bin string, args []string) (*serverProc, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dbtserver: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*serverProc]bool{}
	}
	procs.live[p] = true
	procs.Unlock()

	addrc := make(chan string, 1)
	go func() {
		// Drain stdout for the process lifetime so the child never blocks
		// on a full pipe; the first "serving" line carries the address.
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, "dbtserver: serving ") {
				if i := strings.LastIndex(line, " on "); i >= 0 {
					f := strings.Fields(line[i+4:])
					if len(f) > 0 {
						addrc <- f[0]
						sent = true
					}
				}
			}
		}
		close(addrc)
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			p.stop()
			return nil, 0, errors.New("dbtserver exited before serving")
		}
		p.addr = addr
		return p, time.Since(start), nil
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, 0, errors.New("dbtserver did not start serving within 60s")
	}
}

// stop interrupts the server (a graceful Close: clients must have quit)
// and waits for it to exit, killing it after a grace period. dbtserver
// installs its interrupt handler just after it prints its address, so an
// interrupt that lands first ends it by the signal's default action; that
// counts as stopped too (for the WAL it is a crash, which recovery
// handles).
func (p *serverProc) stop() error {
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
		var ee *exec.ExitError
		if errors.As(p.err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGINT {
				return nil
			}
		}
		return p.err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("dbtserver did not exit on interrupt; killed")
	}
}

// stopAll kills every server still running (error and signal paths).
func stopAll() {
	procs.Lock()
	var ps []*serverProc
	for p := range procs.live {
		ps = append(ps, p)
	}
	procs.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
		procs.Lock()
		delete(procs.live, p)
		procs.Unlock()
		<-p.done
	}
}

// conn is a lean protocol connection: requests are pre-rendered bytes, and
// only the reply head is parsed on the hot path.
type conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64*1024), w: bufio.NewWriterSize(c, 64*1024)}, nil
}

// send writes one request and reads the reply's first line.
func (c *conn) send(req []byte) (string, error) {
	if _, err := c.w.Write(req); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}

// command sends one command line; for the commands whose reply is "OK <n>"
// followed by n lines it reads the body too. An ERR reply is an error.
func (c *conn) command(line string) (string, []string, error) {
	head, err := c.send([]byte(line + "\n"))
	if err != nil {
		return "", nil, err
	}
	if strings.HasPrefix(head, "ERR") {
		return head, nil, fmt.Errorf("%s: %s", line, head)
	}
	cmd, _, _ := strings.Cut(line, " ")
	switch cmd {
	case "RESULT", "METRICS":
	default:
		return head, nil, nil
	}
	f := strings.Fields(head)
	if len(f) < 2 {
		return head, nil, fmt.Errorf("%s: malformed reply %q", line, head)
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return head, nil, fmt.Errorf("%s: malformed reply %q", line, head)
	}
	body := make([]string, n)
	for i := range body {
		l, err := c.r.ReadString('\n')
		if err != nil {
			return head, nil, err
		}
		body[i] = strings.TrimRight(l, "\r\n")
	}
	return head, body, nil
}

func (c *conn) quit() {
	_, _, _ = c.command("QUIT")
	c.c.Close()
}

// walCounters parses the METRICS "wal ..." line.
func walCounters(lines []string) map[string]float64 {
	out := map[string]float64{}
	for _, l := range lines {
		if !strings.HasPrefix(l, "wal ") {
			continue
		}
		for _, kv := range strings.Fields(l)[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out
}
