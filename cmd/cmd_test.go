// Package cmd_test smoke-tests each binary end to end through the Go
// toolchain: the tools must build, run, and produce their expected output
// shapes on the demo workloads.
package cmd_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func run(t *testing.T, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestDbtoasterFigure2(t *testing.T) {
	out := run(t, "./cmd/dbtoaster", "-name", "rst", "-table")
	for _, want := range []string{"Recursive compilation", "Maps (6 total)", "foreach"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDbtoasterProgramAndGo(t *testing.T) {
	out := run(t, "./cmd/dbtoaster", "-name", "vwap", "-program")
	if !strings.Contains(out, "on +bids") {
		t.Errorf("program output missing trigger:\n%s", out)
	}
	out = run(t, "./cmd/dbtoaster", "-name", "rst", "-go")
	if !strings.Contains(out, "func (s *State) OnInsertR(") {
		t.Errorf("codegen output missing handler:\n%s", out)
	}
}

func TestDbtoasterCustomTables(t *testing.T) {
	out := run(t, "./cmd/dbtoaster",
		"-tables", "R(A:int,B:int);S(B:int,C:int)",
		"-sql", "select B, sum(A) from R group by B",
		"-program")
	if !strings.Contains(out, "on +R") {
		t.Errorf("custom-table program missing trigger:\n%s", out)
	}
}

func TestDbtoasterProfile(t *testing.T) {
	out := run(t, "./cmd/dbtoaster", "-name", "ssb41", "-profile")
	if !strings.Contains(out, "maps:") || !strings.Contains(out, "generated Go:") {
		t.Errorf("profile output incomplete:\n%s", out)
	}
}

func TestDbtraceRuns(t *testing.T) {
	out := run(t, "./cmd/dbtrace", "-name", "rst", "-events", "3")
	for _, want := range []string{"event +R(1, 10)", "stmt:", "final map contents"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestBakeoffRuns(t *testing.T) {
	out := run(t, "./cmd/bakeoff", "-scenario", "financial", "-events", "800", "-slowcap", "200")
	for _, want := range []string{"financial / VWAP threshold", "dbtoaster", "naive-reeval", "compile profile"} {
		if !strings.Contains(out, want) {
			t.Errorf("bakeoff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " NO") {
		t.Errorf("bakeoff reports disagreement:\n%s", out)
	}
}

// TestDbtserverInterruptRightAfterStartup interrupts the daemon the moment
// it prints its serving line: the signal handler must already be in place,
// so the process shuts down gracefully and exits 0 instead of dying to the
// default SIGINT disposition.
func TestDbtserverInterruptRightAfterStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	bin := filepath.Join(t.TempDir(), "dbtserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dbtserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-tables", "R(A:int,B:int)",
		"-sql", "select B, sum(A) from R group by B", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if strings.HasPrefix(sc.Text(), "dbtserver: serving ") {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dbtserver exit: %v\noutput:\n%s", err, strings.Join(lines, "\n"))
	}
	if out := strings.Join(lines, "\n"); !strings.Contains(out, "dbtserver: shutting down") {
		t.Fatalf("no graceful shutdown line:\n%s", out)
	}
}

// TestUnsupportedSQLFailsCleanly runs the binaries against unsupported
// statements: each must exit non-zero with an error naming the offending
// clause on stderr — never a panic trace.
func TestUnsupportedSQLFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	cases := []struct {
		bin, sql, want string
	}{
		{"./cmd/dbtoaster", "select sum(A) from R right join S on R.B = S.B", "RIGHT OUTER JOIN is not supported"},
		{"./cmd/dbtoaster", "select min(S.C) from R left outer join S on R.B = S.B", "MIN with LEFT OUTER JOIN is not supported"},
		{"./cmd/dbtserver", "select sum(A) from R where exists (select * from S, T where S.C = T.C)", "EXISTS subquery supports exactly one FROM relation"},
		{"./cmd/dbtserver", "select * from R", "SELECT * is only supported inside EXISTS subqueries"},
	}
	for _, tc := range cases {
		args := []string{"run", tc.bin,
			"-tables", "R(A:int,B:int);S(B:int,C:int);T(C:int,D:int)",
			"-sql", tc.sql}
		if tc.bin == "./cmd/dbtoaster" {
			args = append(args, "-program")
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = ".."
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%s with %q succeeded, want compile error", tc.bin, tc.sql)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s with %q: output does not name the clause (want %q):\n%s", tc.bin, tc.sql, tc.want, out)
		}
		if strings.Contains(string(out), "panic:") {
			t.Errorf("%s with %q panicked:\n%s", tc.bin, tc.sql, out)
		}
	}
}
