package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves outside its own memory: the
// built ldpd binary, the child processes and their state directories.
// cleanup is reachable from every exit path (normal return, error,
// panic, SIGINT), because a leaked ldpd silently answers the next
// run's /healthz and a leaked state dir is replayed by it.
type harness struct {
	root string // repository root (holds go.mod and BENCHMARK.json)
	ldpd string // built cmd/ldpd binary
	base string // parent of every state dir of this run

	mu    sync.Mutex
	procs map[*server]struct{}
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory; run from the repository checkout")
		}
		dir = parent
	}
}

// newHarness builds cmd/ldpd from the checkout's source and prepares
// the state-dir parent. dir == "" selects bench/.build/state inside
// the checkout, so a run reads and writes nothing outside it.
func newHarness(dir string, allowTmpfs bool) (*harness, time.Duration, error) {
	root, err := findRoot()
	if err != nil {
		return nil, 0, err
	}
	build := filepath.Join(root, "bench", ".build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, 0, err
	}
	h := &harness{root: root, ldpd: filepath.Join(build, "ldpd"), procs: make(map[*server]struct{})}

	// Always rebuild (a no-op link when the cache is warm): reusing a
	// binary left by an earlier commit would measure the wrong code.
	// Build to a private name and rename, so concurrent runs never
	// exec a half-written file.
	start := time.Now()
	tmp := fmt.Sprintf("%s.%d", h.ldpd, os.Getpid())
	cmd := exec.Command("go", "build", "-o", tmp, "./cmd/ldpd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("building cmd/ldpd: %v\n%s", err, out)
	}
	if err := os.Rename(tmp, h.ldpd); err != nil {
		return nil, 0, err
	}
	buildTime := time.Since(start)

	if dir == "" {
		dir = filepath.Join(build, "state")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	if h.base, err = os.MkdirTemp(dir, "run-*"); err != nil {
		return nil, 0, err
	}
	fst, err := fsType(h.base)
	if err != nil {
		h.cleanup()
		return nil, 0, err
	}
	if (fst == "tmpfs" || fst == "ramfs") && !allowTmpfs {
		h.cleanup()
		return nil, 0, fmt.Errorf("state dir %s is on %s, where fsync is a no-op and the durable path is not measured; pass -dir on a real filesystem or -allow-tmpfs", dir, fst)
	}
	return h, buildTime, nil
}

// stateDir creates a fresh state directory under the run's base.
func (h *harness) stateDir(label string) (string, error) {
	return os.MkdirTemp(h.base, label+"-*")
}

// cleanup kills every child still running and removes the run's state.
func (h *harness) cleanup() {
	h.mu.Lock()
	procs := make([]*server, 0, len(h.procs))
	for s := range h.procs {
		procs = append(procs, s)
	}
	h.mu.Unlock()
	for _, s := range procs {
		_ = s.stop(syscall.SIGKILL) // already reported if it mattered; cleanup must not stop early
	}
	if h.base != "" {
		_ = os.RemoveAll(h.base) // best effort: a stray dir under bench/.build is ignored by git
	}
}

// server is one running ldpd child.
type server struct {
	h    *harness
	cmd  *exec.Cmd
	url  string
	pid  int
	logs *tailBuffer
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// tailBuffer keeps the last few KiB of a child's log for diagnostics.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, line...)
	t.buf = append(t.buf, '\n')
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// start execs ldpd on a kernel-chosen port and returns once it answers
// 200 on /healthz; the returned duration runs from exec to that answer.
func (h *harness) start(args ...string) (*server, time.Duration, error) {
	begin := time.Now()
	cmd := exec.Command(h.ldpd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{h: h, cmd: cmd, pid: cmd.Process.Pid, logs: new(tailBuffer), done: make(chan struct{})}
	h.mu.Lock()
	h.procs[s] = struct{}{}
	h.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.logs.add(line)
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		s.err = cmd.Wait()
		close(s.done)
	}()

	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.done:
		h.forget(s)
		return nil, 0, fmt.Errorf("ldpd exited before listening: %v\n%s", s.err, s.logs)
	case <-time.After(60 * time.Second):
		_ = s.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("ldpd did not listen within 60s\n%s", s.logs)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(begin), nil
			}
		}
		if time.Now().After(deadline) {
			_ = s.stop(syscall.SIGKILL)
			return nil, 0, fmt.Errorf("ldpd at %s never answered 200 on /healthz\n%s", s.url, s.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (h *harness) forget(s *server) {
	h.mu.Lock()
	delete(h.procs, s)
	h.mu.Unlock()
}

// stop signals the child and waits until it has ended. SIGTERM is the
// graceful path (drain, final flush, final checkpoint); a graceful
// stop that exits non-zero is an error.
func (s *server) stop(sig syscall.Signal) error {
	defer s.h.forget(s)
	select {
	case <-s.done:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("ldpd pid %d ignored %v for 60s\n%s", s.pid, sig, s.logs)
	}
	if sig == syscall.SIGTERM && s.err != nil {
		return fmt.Errorf("ldpd pid %d: graceful shutdown failed: %v\n%s", s.pid, s.err, s.logs)
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime returns the process's user and system CPU time so far.
func cpuTime(pid int) (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name, which may itself
	// hold spaces: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	tick := time.Second / clockTick
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// peakRSS returns the process's resident-set high-water mark in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files in dir whose name
// contains the marker.
func dirBytes(dir, marker string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.Type().IsRegular() && strings.Contains(e.Name(), marker) {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}
