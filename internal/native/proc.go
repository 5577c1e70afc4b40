package native

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sync"
	"time"

	"dbtoaster/internal/codegen"
	"dbtoaster/internal/types"
)

// maxFrame bounds reply frames so a corrupted length field cannot demand
// an absurd allocation; state dumps of real queries sit far below this.
const maxFrame = 1 << 30

// Proc drives a generated binary as a child process. Writes are buffered
// and pipelined — Apply does not wait for the child — and Dump/Load are
// the barriers where buffered work is flushed and failures surface. A
// Proc is not safe for concurrent use; the engine layer serializes, as it
// does for the single-threaded interpreter.
// Errors are sticky: after the first failure every call reports it, with
// the tail of the child's stderr attached for diagnosis.
type Proc struct {
	spec    *codegen.Spec
	cmd     *exec.Cmd
	in      *bufio.Writer
	inC     io.Closer
	out     *bufio.Reader
	stderr  *tailBuf
	err     error
	buf     []byte // payload scratch, reused across frames
	timeout time.Duration
	// inF/outF are the pipe ends as *os.File when available, for liveness
	// deadlines on the protocol (a hung child fails the barrier instead of
	// wedging the caller forever).
	inF  *os.File
	outF *os.File
}

// ProcOptions tunes a child process.
type ProcOptions struct {
	// Timeout is both the liveness deadline on every pipe read/write and
	// the shutdown reap deadline before the child is killed. Zero takes
	// DBT_NATIVE_TIMEOUT (a time.ParseDuration string), then 5s.
	Timeout time.Duration
}

// DefaultTimeout resolves the effective child timeout for zero options.
func (o ProcOptions) DefaultTimeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	if v := os.Getenv("DBT_NATIVE_TIMEOUT"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return 5 * time.Second
}

// StartProc launches a built artifact with default options.
func StartProc(bin string, spec *codegen.Spec) (*Proc, error) {
	return StartProcOptions(bin, spec, ProcOptions{})
}

// StartProcOptions launches a built artifact.
func StartProcOptions(bin string, spec *codegen.Spec, opts ProcOptions) (*Proc, error) {
	cmd := exec.Command(bin)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("native: stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("native: stdout pipe: %w", err)
	}
	tb := &tailBuf{}
	cmd.Stderr = tb
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("native: start %s: %w", bin, err)
	}
	p := &Proc{
		spec:    spec,
		cmd:     cmd,
		in:      bufio.NewWriterSize(stdin, 1<<16),
		inC:     stdin,
		out:     bufio.NewReader(stdout),
		stderr:  tb,
		timeout: opts.DefaultTimeout(),
	}
	p.inF, _ = stdin.(*os.File)
	p.outF, _ = stdout.(*os.File)
	return p, nil
}

// Kill terminates the child immediately (liveness failures and tests; the
// next barrier surfaces the broken pipe as a sticky error).
func (p *Proc) Kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return nil
	}
	return p.cmd.Process.Kill()
}

// armRead and armWrite set liveness deadlines on the pipe when the OS
// exposes them (stdin/stdout of a child are *os.File on Linux); deadline
// errors read as os.ErrDeadlineExceeded and get a clearer message below.
func (p *Proc) armRead() {
	if p.outF != nil && p.timeout > 0 {
		p.outF.SetReadDeadline(time.Now().Add(p.timeout))
	}
}

func (p *Proc) armWrite() {
	if p.inF != nil && p.timeout > 0 {
		p.inF.SetWriteDeadline(time.Now().Add(p.timeout))
	}
}

func (p *Proc) liveness(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		p.Kill()
		return fmt.Errorf("native: child unresponsive after %s: %w", p.timeout, err)
	}
	return err
}

// fail records the first error, decorated with the child's stderr tail.
func (p *Proc) fail(err error) error {
	if p.err == nil {
		if tail := p.stderr.String(); tail != "" {
			err = fmt.Errorf("%w (child stderr: %s)", err, tail)
		}
		p.err = err
	}
	return p.err
}

// writeFrame frames and buffers one payload.
func (p *Proc) writeFrame(payload []byte) error {
	if p.err != nil {
		return p.err
	}
	p.armWrite() // a full pipe behind a hung child must not block forever
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := p.in.Write(hdr[:]); err != nil {
		return p.fail(fmt.Errorf("native: write frame: %w", p.liveness(err)))
	}
	if _, err := p.in.Write(payload); err != nil {
		return p.fail(fmt.Errorf("native: write frame: %w", p.liveness(err)))
	}
	return nil
}

// readReply flushes buffered frames and reads one reply payload. An 'E'
// reply becomes a sticky error carrying the child's message.
func (p *Proc) readReply() ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	p.armWrite()
	if err := p.in.Flush(); err != nil {
		return nil, p.fail(fmt.Errorf("native: flush: %w", p.liveness(err)))
	}
	p.armRead()
	var hdr [4]byte
	if _, err := io.ReadFull(p.out, hdr[:]); err != nil {
		return nil, p.fail(fmt.Errorf("native: read reply: %w", p.liveness(err)))
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, p.fail(fmt.Errorf("native: bad reply length %d", n))
	}
	if cap(p.buf) < int(n) {
		p.buf = make([]byte, n)
	}
	p.buf = p.buf[:n]
	p.armRead()
	if _, err := io.ReadFull(p.out, p.buf); err != nil {
		return nil, p.fail(fmt.Errorf("native: read reply body: %w", p.liveness(err)))
	}
	if p.buf[0] == 'E' {
		return nil, p.fail(fmt.Errorf("native: child error: %s", p.buf[1:]))
	}
	return p.buf, nil
}

// Apply encodes and buffers one event batch (no round trip).
func (p *Proc) Apply(evs []Event) error {
	if p.err != nil {
		return p.err
	}
	payload := encodeBatch(nil, p.spec, evs)
	return p.writeFrame(payload)
}

// Dump requests the child's full state (a barrier).
func (p *Proc) Dump() ([]MapDump, error) {
	if err := p.writeFrame([]byte{'S'}); err != nil {
		return nil, err
	}
	reply, err := p.readReply()
	if err != nil {
		return nil, err
	}
	if reply[0] != 'D' {
		return nil, p.fail(fmt.Errorf("native: unexpected reply %q to dump", reply[0]))
	}
	dump, err := decodeDump(reply[1:], p.spec)
	if err != nil {
		return nil, p.fail(err)
	}
	return dump, nil
}

// Load replaces the child's state (a barrier; dump order must follow the
// spec's map order, as Dump produces it).
func (p *Proc) Load(dump []MapDump) error {
	payload, err := encodeLoad(p.spec, dump)
	if err != nil {
		return p.fail(err)
	}
	if err := p.writeFrame(payload); err != nil {
		return err
	}
	reply, err := p.readReply()
	if err != nil {
		return err
	}
	if reply[0] != 'K' {
		return p.fail(fmt.Errorf("native: unexpected reply %q to load", reply[0]))
	}
	return nil
}

// Close asks the child to exit and reaps it; a child that ignores the
// request past the configured timeout is killed. Close after a sticky
// error kills directly.
func (p *Proc) Close() error {
	if p.cmd == nil {
		return nil
	}
	if p.err == nil {
		if p.writeFrame([]byte{'Q'}) == nil {
			p.armWrite()
			p.in.Flush()
		}
	}
	p.inC.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(p.timeout):
		p.cmd.Process.Kill()
		werr = <-done
	}
	p.cmd = nil
	if p.err != nil {
		return p.err
	}
	if werr != nil {
		return fmt.Errorf("native: child exit: %w (stderr: %s)", werr, p.stderr.String())
	}
	return nil
}

// --- wire encoding (host side of the driver's protocol) ---

func putU32(b []byte, v uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	return append(b, w[:]...)
}

func putU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

// putValue encodes one column in wire form for kind k; Null (possible only
// on unchecked columns no trigger reads) encodes as the kind's zero.
func putValue(b []byte, v types.Value, k types.Kind) []byte {
	switch k {
	case types.KindInt:
		var x int64
		if v.Kind() == types.KindInt {
			x = v.Int()
		}
		return putU64(b, uint64(x))
	case types.KindFloat:
		var x float64
		if v.Kind() == types.KindFloat || v.Kind() == types.KindInt {
			x = v.Float()
		}
		return putU64(b, math.Float64bits(x))
	case types.KindString:
		var s string
		if v.Kind() == types.KindString {
			s = v.Str()
		}
		return append(putU32(b, uint32(len(s))), s...)
	case types.KindBool:
		if v.Kind() == types.KindBool && v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	default:
		return putU64(b, 0)
	}
}

// encodeBatch renders a 'B' payload.
func encodeBatch(b []byte, spec *codegen.Spec, evs []Event) []byte {
	b = append(b, 'B')
	b = putU32(b, uint32(len(evs)))
	for _, ev := range evs {
		op := byte(0)
		if ev.Insert {
			op = 1
		}
		b = append(b, op, byte(ev.Rel))
		kinds := spec.Rels[ev.Rel].Kinds
		for i, k := range kinds {
			var v types.Value
			if i < len(ev.Args) {
				v = ev.Args[i]
			}
			b = putValue(b, v, k)
		}
	}
	return b
}

// encodeLoad renders an 'R' payload from a dump in spec map order.
func encodeLoad(spec *codegen.Spec, dump []MapDump) ([]byte, error) {
	if len(dump) != len(spec.Maps) {
		return nil, fmt.Errorf("native: load dump has %d maps, spec %d", len(dump), len(spec.Maps))
	}
	b := []byte{'R'}
	for mi, ms := range spec.Maps {
		d := dump[mi]
		if d.Name != ms.Name {
			return nil, fmt.Errorf("native: load map order diverges at %d: %s vs %s", mi, d.Name, ms.Name)
		}
		b = putU64(b, uint64(len(d.Keys)))
		for ei, key := range d.Keys {
			for i, kk := range ms.KeyKinds {
				var v types.Value
				if i < len(key) {
					v = key[i]
				}
				b = putValue(b, v, kk)
			}
			b = putU64(b, math.Float64bits(d.Vals[ei]))
		}
	}
	return b, nil
}

// decodeDump parses a 'D' body into canonicalized map dumps.
func decodeDump(p []byte, spec *codegen.Spec) ([]MapDump, error) {
	off := 0
	readU64 := func() (uint64, error) {
		if off+8 > len(p) {
			return 0, fmt.Errorf("native: truncated dump")
		}
		v := binary.LittleEndian.Uint64(p[off:])
		off += 8
		return v, nil
	}
	out := make([]MapDump, 0, len(spec.Maps))
	for _, ms := range spec.Maps {
		n, err := readU64()
		if err != nil {
			return nil, err
		}
		d := MapDump{Name: ms.Name}
		for j := uint64(0); j < n; j++ {
			key := make(types.Tuple, len(ms.KeyKinds))
			for i, kk := range ms.KeyKinds {
				switch kk {
				case types.KindInt:
					v, err := readU64()
					if err != nil {
						return nil, err
					}
					key[i] = types.NewInt(int64(v))
				case types.KindFloat:
					v, err := readU64()
					if err != nil {
						return nil, err
					}
					key[i] = types.NewFloat(math.Float64frombits(v))
				case types.KindString:
					if off+4 > len(p) {
						return nil, fmt.Errorf("native: truncated dump")
					}
					sl := int(binary.LittleEndian.Uint32(p[off:]))
					off += 4
					if sl < 0 || off+sl > len(p) {
						return nil, fmt.Errorf("native: truncated dump")
					}
					key[i] = types.NewString(string(p[off : off+sl]))
					off += sl
				case types.KindBool:
					if off+1 > len(p) {
						return nil, fmt.Errorf("native: truncated dump")
					}
					key[i] = types.NewBool(p[off] != 0)
					off++
				default:
					return nil, fmt.Errorf("native: map %s has key kind %s", ms.Name, kk)
				}
			}
			vbits, err := readU64()
			if err != nil {
				return nil, err
			}
			d.Keys = append(d.Keys, key)
			d.Vals = append(d.Vals, math.Float64frombits(vbits))
		}
		out = append(out, d)
	}
	if off != len(p) {
		return nil, fmt.Errorf("native: dump has %d trailing bytes", len(p)-off)
	}
	return out, nil
}

// tailBuf retains the last few KB written, for error diagnostics.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

const tailLimit = 8 << 10

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailLimit {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailLimit:]...)
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
