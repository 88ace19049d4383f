package main

import (
	"context"
	"fmt"
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

// server is one spawned spamserver process.
type server struct {
	name     string
	cmd      *exec.Cmd
	addrFile string
	logPath  string
	addr     string
	done     chan struct{}
	waitErr  error
}

// procs tracks every process the benchmark starts, so each is stopped
// and waited for on every exit path.
var procs struct {
	sync.Mutex
	live map[*server]bool
}

// spawn starts the binary with the given flags plus a loopback listen
// address written to an address file in dir.
func spawn(bin, dir, name string, flags ...string) (*server, error) {
	s := &server{
		name:     name,
		addrFile: filepath.Join(dir, name+".addr"),
		logPath:  filepath.Join(dir, name+".log"),
		done:     make(chan struct{}),
	}
	_ = os.Remove(s.addrFile)
	logf, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", s.addrFile}, flags...)
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is
	// killed before its own cleanup runs.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*server]bool{}
	}
	procs.live[s] = true
	procs.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		logf.Close()
		close(s.done)
		procs.Lock()
		delete(procs.live, s)
		procs.Unlock()
	}()
	return s, nil
}

// waitAddr blocks until the server has written its bound address.
func (s *server) waitAddr(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(s.addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			s.addr = strings.TrimSpace(string(b))
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s exited during boot: %v (log %s: %s)", s.name, s.waitErr, s.logPath, tailOf(s.logPath))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening after %v", s.name, timeout)
		}
	}
}

// waitReady blocks until GET /readyz answers 200. It leaves no idle
// connection behind, so the load's connections are the only ones.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	defer c.CloseIdleConnections()
	if err := s.waitAddr(timeout); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get("http://" + s.addr + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s exited: %v", s.name, s.waitErr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", s.name, timeout)
		}
	}
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
}

// stop asks for a clean shutdown and waits, killing after a grace
// period.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
	}
}

// stopAll kills whatever is still running.
func stopAll() {
	procs.Lock()
	var live []*server
	for s := range procs.live {
		live = append(live, s)
	}
	procs.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// procStat returns a process's peak resident set (VmHWM, MB) and its
// CPU time so far.
func procStat(pid int) (hwmMB float64, cpu time.Duration, err error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, _ := strconv.ParseFloat(f[1], 64)
			hwmMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line, in clock ticks.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const ticks = 100 // USER_HZ on Linux
	return hwmMB, time.Duration(ut+st) * time.Second / ticks, nil
}

// usage sums peak RSS and CPU time over servers.
func usage(ss ...*server) (hwmMB float64, cpu time.Duration, err error) {
	for _, s := range ss {
		h, c, e := procStat(s.cmd.Process.Pid)
		if e != nil {
			return 0, 0, e
		}
		hwmMB += h
		cpu += c
	}
	return hwmMB, cpu, nil
}

// stealNow reads the host-wide CPU time counters of /proc/stat: the
// steal ticks and the total.
func stealNow() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var steal, total uint64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]uint64{steal, total}
}

// stealShare is the share of CPU time the hypervisor took from this
// host since start.
func stealShare(start [2]uint64) float64 {
	now := stealNow()
	if now[1] <= start[1] {
		return 0
	}
	return float64(now[0]-start[0]) / float64(now[1]-start[1])
}

// stealSince reports stealShare: on a shared host it is the first
// suspect when a run is slow.
func stealSince(start [2]uint64, over string) string {
	return fmt.Sprintf("host CPU steal during the %s: %.1f%%", over, 100*stealShare(start))
}

func tailOf(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// runTool runs a build-time tool to completion, its output going to
// stderr so standard output keeps only the report.
func runTool(ctx context.Context, bin string, args ...string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", filepath.Base(bin), strings.Join(args, " "), err)
	}
	return nil
}
