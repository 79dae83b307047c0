package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"raven/internal/ml"
	"raven/internal/server"
)

// served is one ravenserved child process under test.
type served struct {
	cmd  *exec.Cmd
	base string // http://host:port, from the "listening on" stderr line

	mu  sync.Mutex
	log strings.Builder // everything the child wrote to stderr
	eof chan struct{}   // closed when stderr hits EOF (the child exited)
}

func (s *served) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// startServed runs the built binary as a durable server on dir and waits
// for the stderr line that announces the HTTP listener — the line
// benchmark/ and operators' scripts parse.
func startServed(t *testing.T, bin, dir string) *served {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dir,
		"-fsync", "always",
		"-segment-rows", "128",
		"-preload=false",
		"-parallelism", "1",
		"-drain-grace", "0s",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &served{cmd: cmd, eof: make(chan struct{})}
	t.Cleanup(func() { cmd.Process.Kill() })
	addr := make(chan string, 1)
	go func() {
		defer close(s.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "ravenserved listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.eof:
		t.Fatalf("ravenserved exited before listening:\n%s", s.output())
	case <-time.After(30 * time.Second):
		t.Fatalf("ravenserved did not announce its listener within 30s:\n%s", s.output())
	}
	return s
}

// terminate SIGTERMs the child and requires the graceful path: exit
// status 0 after "drained clean".
func (s *served) terminate(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.eof:
	case <-time.After(30 * time.Second):
		t.Fatalf("ravenserved did not drain within 30s of SIGTERM:\n%s", s.output())
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("ravenserved exited uncleanly after SIGTERM: %v\n%s", err, s.output())
	}
	if !strings.Contains(s.output(), "drained clean") {
		t.Fatalf("ravenserved exited 0 without draining clean:\n%s", s.output())
	}
}

// TestGracefulStopCheckpointsAndRestartReplaysNothing drives main's own
// wiring of the durable engine, as a real process: flags reach
// raven.Open, recovery runs before the listener is announced, SIGTERM
// drains and ends in db.Close's checkpoint, and the next start on the
// same -data-dir replays an empty log and answers every query exactly as
// before. (The SIGKILL half of the same story is benchmark/'s
// ingest_durable crash check.)
func TestGracefulStopCheckpointsAndRestartReplaysNothing(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to build the binary")
	}
	bin := filepath.Join(t.TempDir(), "ravenserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	first := startServed(t, bin, dir)
	c := &server.Client{Base: first.base, Timeout: 15 * time.Second}

	// 1001 rows over -segment-rows 128: seven segments seal while
	// loading and 105 rows stay in the WAL-backed tail, so only a
	// checkpoint can leave the log empty.
	const rows = 1001
	if err := c.ExecContext(ctx, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	for lo := 0; lo < rows; lo += 250 {
		var ins strings.Builder
		ins.WriteString("INSERT INTO pts VALUES ")
		for i := lo; i < min(lo+250, rows); i++ {
			if i > lo {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %g, %g)", i, float64(i)*0.5, float64(i%7))
		}
		if err := c.ExecContext(ctx, ins.String()); err != nil {
			t.Fatalf("insert from row %d: %v", lo, err)
		}
	}
	blob, err := ml.Marshal(&ml.Pipeline{
		// One split on x, so PREDICT over ids 0..15 (x = id/2) hits both leaves.
		Final: &ml.DecisionTree{
			NFeat: 2, Feature: []int{0, -1, -1}, Threshold: []float64{3, 0, 0},
			Left: []int{1, -1, -1}, Right: []int{2, -1, -1}, Value: []float64{0, 1, 2},
		},
		InputColumns: []string{"x", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreModel(ctx, server.ModelRequest{Name: "m", Data: blob}); err != nil {
		t.Fatalf("store model: %v", err)
	}

	queries := []string{
		"SELECT COUNT(*) AS n FROM pts",
		"SELECT id, x, y FROM pts WHERE id >= 120 AND id < 140",
		`SELECT d.id, p.score FROM PREDICT(MODEL='m',
			DATA=(SELECT * FROM pts) AS d) WITH (score FLOAT) AS p WHERE d.id < 16`,
	}
	fingerprints := func(c *server.Client) []string {
		fps := make([]string, len(queries))
		for i, q := range queries {
			res, err := c.QueryContext(ctx, server.QueryRequest{SQL: q})
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("query %d: %d rows, %v", i, len(res.Rows), err)
			}
			fps[i] = res.Fingerprint()
		}
		return fps
	}
	want := fingerprints(c)

	st, err := c.StatsContext(ctx)
	if err != nil || st.Engine.Storage == nil {
		t.Fatalf("stats before stop: %+v, %v", st, err)
	}
	if sg := st.Engine.Storage; sg.WalRecords == 0 || sg.SealedRows >= rows || sg.Fsync != "always" {
		t.Fatalf("before stop: want logged writes, an unsealed tail and -fsync always, got %+v", sg)
	}

	first.terminate(t)

	second := startServed(t, bin, dir)
	c = &server.Client{Base: second.base, Timeout: 15 * time.Second}
	st, err = c.StatsContext(ctx)
	if err != nil || st.Engine.Storage == nil {
		t.Fatalf("stats after restart: %+v, %v", st, err)
	}
	// The checkpoint at exit sealed the tail and truncated the log:
	// recovery attached segments and replayed no record.
	if sg := st.Engine.Storage; sg.WalRecords != 0 || sg.SealedRows != rows {
		t.Fatalf("after restart: want 0 WAL records replayed and all %d rows sealed, got %+v", rows, sg)
	}
	for i, got := range fingerprints(c) {
		if got != want[i] {
			t.Errorf("query %d diverged across the graceful restart:\nwant:\n%s\ngot:\n%s", i, want[i], got)
		}
	}
	second.terminate(t)
}
