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

const (
	listenMarker = "hpmserve listening on "
	debugMarker  = "hpmserve pprof on "
	// startTimeout bounds exec → /readyz 200; a journal restore of the
	// largest workload takes a couple of seconds on the reference box.
	startTimeout = 60 * time.Second
	// killAfter is how long a SIGTERMed child may take to flush and exit
	// before it is SIGKILLed.
	killAfter = 15 * time.Second
	// userHz is the kernel's clock-tick unit for /proc/<pid>/stat CPU
	// times; it is 100 on every Linux ABI Go supports.
	userHz = 100
)

// workDir holds the daemon binary and the per-workload temp dirs
// (journals), which are removed on exit. It lies inside the checkout the
// command runs from, where the benchmark's contract wants every write, and
// is git-ignored.
const workDir = ".bench_build"

// buildDaemon compiles cmd/hpmserve into dir and returns the binary's
// path and the build's wall time (reported on its own, never part of
// setup_s).
func buildDaemon(dir string) (string, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "hpmserve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "hierctl/cmd/hpmserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build hierctl/cmd/hpmserve: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// tailBuffer keeps the last max bytes written to it: enough of a dead
// daemon's stderr to say why it died, without growing with its chatter.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one running hpmserve child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	debug  string // the pprof listener, read for the runtime's allocation counter only
	stderr *tailBuffer
	// exited closes once the child has been waited for; waitErr is its
	// exit status.
	exited  chan struct{}
	waitErr error
	// readyAfter is exec → first /readyz 200.
	readyAfter time.Duration
}

// children tracks every live daemon so an interrupt or a failing run can
// reap them all; Pdeathsig (Linux) is the backstop for a hard crash.
var children struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

// reapChildren kills whatever daemons are still running. Normal paths
// stop their own daemon; this is for exits that skip them.
func reapChildren() {
	children.mu.Lock()
	live := make([]*daemon, 0, len(children.live))
	for d := range children.live {
		live = append(live, d)
	}
	children.mu.Unlock()
	for _, d := range live {
		_, _ = d.stop()
	}
}

// startDaemon execs the daemon on ephemeral loopback ports with the given
// extra flags, parses the ports from its "listening on" and "pprof on"
// lines and polls /readyz until it answers 200. A child that dies or
// never turns ready fails fast with the tail of its stderr.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, extra...)
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		stderr: &tailBuffer{max: 8 << 10},
		exited: make(chan struct{}),
	}
	d.cmd.Stderr = d.stderr
	d.cmd.SysProcAttr = childAttr()
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	execAt := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*daemon]struct{}{}
	}
	children.live[d] = struct{}{}
	children.mu.Unlock()

	// The reader owns stdout until EOF and must finish before Wait closes
	// the pipe, so the same goroutine reaps the child.
	addrc := make(chan [2]string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		var addrs [2]string // API, pprof
		sent := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), listenMarker); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					addrs[0] = f[0]
				}
			} else if rest, ok := strings.CutPrefix(sc.Text(), debugMarker); ok {
				addrs[1] = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if !sent && addrs[0] != "" && addrs[1] != "" {
				addrc <- addrs
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.waitErr = d.cmd.Wait()
		children.mu.Lock()
		delete(children.live, d)
		children.mu.Unlock()
	}()

	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	select {
	case addrs := <-addrc:
		d.base, d.debug = "http://"+addrs[0], "http://"+addrs[1]
	case <-d.exited:
		return nil, fmt.Errorf("hpmserve exited before listening: %v\nstderr: %s", d.waitErr, d.stderr)
	case <-deadline.C:
		_, _ = d.stop()
		return nil, fmt.Errorf("hpmserve printed no %q and %q lines within %v\nstderr: %s", listenMarker, debugMarker, startTimeout, d.stderr)
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyAfter = time.Since(execAt)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("hpmserve exited before /readyz turned 200: %v\nstderr: %s", d.waitErr, d.stderr)
		case <-deadline.C:
			_, _ = d.stop()
			return nil, fmt.Errorf("/readyz not 200 within %v (last error %v)\nstderr: %s", startTimeout, err, d.stderr)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop SIGTERMs the child, waits for it to flush and exit (SIGKILL after
// killAfter) and returns how long that took. A clean shutdown exits 0;
// anything else is an error carrying the stderr tail.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(killAfter):
			_ = d.cmd.Process.Kill()
			<-d.exited
			return time.Since(start), fmt.Errorf("hpmserve ignored SIGTERM for %v and was killed\nstderr: %s", killAfter, d.stderr)
		}
	}
	if d.waitErr != nil {
		return time.Since(start), fmt.Errorf("hpmserve exit: %w\nstderr: %s", d.waitErr, d.stderr)
	}
	return time.Since(start), nil
}

// cpuSeconds reads the child's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is [0], utime
	// and stime are [11] and [12].
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (utime + stime) / userHz, nil
}

// allocBytes reads the child's cumulative heap allocation
// (runtime.MemStats.TotalAlloc) from the pprof listener's text heap
// profile. It is read between phases, never during one: the handler stops
// the world to fill MemStats.
func (d *daemon) allocBytes() (float64, error) {
	resp, err := http.Get(d.debug + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no TotalAlloc in /debug/pprof/allocs?debug=1")
}

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
