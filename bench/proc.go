package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running cacheserve subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer // the server's stderr, shown only when something fails
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// live tracks the subprocesses of this run so that every exit path —
// normal return, a failed check, SIGINT/SIGTERM — stops and reaps them.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func stopAllServers() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// freeLoopbackAddr asks the kernel for an unused loopback port. The
// listener is closed before cacheserve binds it; nothing else on this
// box races for ephemeral ports in that window.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches bin with its default flags plus args on a free
// loopback port and waits for /healthz.
func startServer(bin string, args ...string) (*serverProc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a loopback port: %w", err)
	}
	p := &serverProc{addr: addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = &p.log
	p.cmd.SysProcAttr = childAttr()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("cacheserve exited during start-up: %v\n%s", p.err, p.log.String())
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("cacheserve not healthy after 30s\n%s", p.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGINT (cacheserve's clean-shutdown signal), waits for the
// process to be reaped, and kills it if it has not exited in 20 s.
func (p *serverProc) stop() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", s)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line: %q", s)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// clockTicksPerSecond is USER_HZ, 100 on every Linux architecture Go
// supports.
const clockTicksPerSecond = 100

// rssHighWaterMB is the server's peak resident set, VmHWM in
// /proc/<pid>/status.
func (p *serverProc) rssHighWaterMB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
