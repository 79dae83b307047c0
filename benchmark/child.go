package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// paths locates everything the benchmark touches on disk. All of it is
// inside the checkout: binaries and scratch data under .bench_build,
// results and traces under benchmark/out.
type paths struct {
	root string // the checkout (module raven)
	bin  string
	tmp  string
	out  string
}

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json next to the served command's source.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ravenserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (cmd/ravenserved) above the working directory")
		}
		dir = parent
	}
}

func newPaths() (*paths, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	p := &paths{
		root: root,
		bin:  filepath.Join(root, ".bench_build", "bin"),
		tmp:  filepath.Join(root, ".bench_build", "tmp"),
		out:  filepath.Join(root, "benchmark", "out"),
	}
	for _, d := range []string{p.bin, p.tmp, p.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// buildChildren compiles the two programs under test from the
// checkout's source. The go tool skips the work when nothing changed.
func (p *paths) buildChildren() (time.Duration, error) {
	start := time.Now()
	for _, name := range []string{"ravenserved", "ravenrouter"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(p.bin, name), "./cmd/"+name)
		cmd.Dir = p.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return time.Since(start), nil
}

// child is one spawned process under test.
type child struct {
	cmd  *exec.Cmd
	pid  int
	http string // host:port of the HTTP listener
	pg   string // host:port of the pg listener, if any

	mu   sync.Mutex
	tail []string // last lines of stderr, for diagnostics
	done chan struct{}
}

// spawn starts bin with args and waits until it has announced every
// listener in want ("listening on" for HTTP, "pg protocol on" for pg).
// The child dies with the benchmark: Pdeathsig covers a benchmark crash.
func spawn(bin string, wantPG bool, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{})}
	type addrs struct{ http, pg string }
	ready := make(chan addrs, 1)
	go func() {
		defer close(c.done)
		var a addrs
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.tail = append(c.tail, line); len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if _, rest, ok := strings.Cut(line, " pg protocol on "); ok {
				a.pg = strings.Fields(rest)[0]
			} else if _, rest, ok := strings.Cut(line, " listening on "); ok {
				a.http = strings.TrimSuffix(strings.Fields(rest)[0], ",")
			}
			if !sent && a.http != "" && (!wantPG || a.pg != "") {
				sent = true
				ready <- a
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-ready:
		c.http, c.pg = a.http, a.pg
		return c, nil
	case <-c.done:
		cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening:\n%s", filepath.Base(bin), c.stderrTail())
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s did not listen within 60s:\n%s", filepath.Base(bin), c.stderrTail())
	}
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// kill SIGKILLs the child and waits until it has ended. Safe on nil and
// safe to call twice.
func (c *child) kill() {
	if c == nil || c.cmd.ProcessState != nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.done
	c.cmd.Wait()
}

// waitHealthy polls GET /healthz on a fresh connection until it reports
// ok, and returns how long that took.
func (c *child) waitHealthy(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for time.Since(start) < timeout {
		if h, err := dialHTTP(c.http); err == nil {
			status, body, err := h.getJSON("/healthz")
			h.close()
			if err == nil && status == 200 && body["status"] == "ok" {
				return time.Since(start), nil
			}
		}
		select {
		case <-c.done:
			return 0, fmt.Errorf("child exited while waiting for /healthz:\n%s", c.stderrTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return 0, fmt.Errorf("child not healthy within %v:\n%s", timeout, c.stderrTail())
}
