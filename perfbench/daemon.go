package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"maia/internal/maiad"
)

// daemon is one maiad process the benchmark launched. Every serve phase
// boots its own, so no cache state carries over between phases or runs.
type daemon struct {
	cmd    *exec.Cmd
	log    *daemonLog
	exited chan struct{}
	base   string
	// boot is the time from launch until /healthz first answered 200,
	// which covers process start, golden seeding and the listener.
	boot time.Duration
}

// daemonLog collects the daemon's stderr and announces the listen
// address the daemon logs once it is up.
type daemonLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

const listenPrefix = "maiad: listening on "

// Write implements io.Writer for the daemon's stderr.
func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		s := l.buf.String()
		if i := strings.Index(s, listenPrefix); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				l.found = true
				l.addr <- s[i+len(listenPrefix) : i+j]
			}
		}
	}
	return len(p), nil
}

// String returns everything the daemon has logged.
func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon launches maiad on an ephemeral loopback port with two
// engine workers and waits until it answers /healthz.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-workers", "2")
	// The daemon must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	log := &daemonLog{addr: make(chan string, 1)}
	cmd.Stderr = log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start maiad: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		// Wait's error is reported by stop through ProcessState.
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-log.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("maiad exited during boot: %s", log.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("maiad did not report its address: %s", log.String())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("maiad not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.boot = time.Since(start)
	return d, nil
}

// stop sends SIGTERM, waits for the daemon to exit (killing it after
// 15 s) and reports an unclean exit.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("maiad exited with %v: %s", d.cmd.ProcessState, d.log.String())
	}
	return nil
}

// rssMB reads the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) rssMB() (float64, error) {
	statusPath := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", statusPath, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// snapshot fetches the daemon's JSON metrics.
func (d *daemon) snapshot() (maiad.Snapshot, error) {
	var snap maiad.Snapshot
	resp, err := http.Get(d.base + "/metrics?format=json")
	if err != nil {
		return snap, fmt.Errorf("fetch metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode metrics: %w", err)
	}
	return snap, nil
}
