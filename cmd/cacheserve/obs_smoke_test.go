package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

var listenRE = regexp.MustCompile(`cacheserve listening on ([0-9.]+:[0-9]+)`)

// startCacheserve builds the real binary, starts it with args on a free
// port and waits for the listen address it logs. Everything the process
// prints is collected in logged; stop signals it and reports how it exited
// (it is also run at cleanup, so a failing test never leaves a server
// behind).
func startCacheserve(t *testing.T, args ...string) (addr string, logged *bytes.Buffer, stop func(os.Signal) error) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the cacheserve binary")
	}
	bin := filepath.Join(t.TempDir(), "cacheserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cacheserve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting cacheserve: %v", err)
	}
	// The scanner goroutine owns the pipe until EOF; cmd.Wait closes it,
	// so Wait runs only after the scan is done.
	logged = &bytes.Buffer{}
	addrCh := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(io.TeeReader(stderr, logged))
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var exited bool
	var exitErr error
	stop = func(sig os.Signal) error {
		if exited {
			return exitErr
		}
		exited = true
		cmd.Process.Signal(sig)
		done := make(chan struct{})
		go func() { <-scanned; exitErr = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
			exitErr = fmt.Errorf("did not exit within 5s of %v: %v", sig, exitErr)
		}
		return exitErr
	}
	t.Cleanup(func() { stop(os.Interrupt) })

	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		stop(os.Interrupt)
		t.Fatalf("cacheserve never reported its listen address; log:\n%s", logged.String())
	}
	return addr, logged, stop
}

// TestSIGTERMFlushesTenants: SIGTERM (kill, docker stop, systemd) must
// take the same shutdown path as ^C — exit status 0 with the resident
// tenant's snapshot on disk — not the runtime's default kill, which lost
// everything the tenant learned since its last eviction.
func TestSIGTERMFlushesTenants(t *testing.T) {
	dir := t.TempDir()
	addr, logged, stop := startCacheserve(t, "-persist-dir", dir)
	body := bytes.NewReader([]byte(`{"user":"sigterm","query":"does kill lose my cache"}`))
	resp, err := http.Post("http://"+addr+"/v1/query", "application/json", body)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if err := stop(syscall.SIGTERM); err != nil {
		t.Fatalf("exit after SIGTERM: %v; log:\n%s", err, logged)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.cache")); len(snaps) != 1 {
		t.Errorf("%d tenant snapshots in -persist-dir after SIGTERM, want 1; log:\n%s", len(snaps), logged)
	}
	if !bytes.Contains(logged.Bytes(), []byte("flushed 1 resident tenants")) {
		t.Errorf("no flush line in the log:\n%s", logged)
	}
}

// TestMetricsSmoke is the CI observability smoke: build the real binary,
// start it with -metrics and tracing on, drive a miss + hit through
// /v1/query, and lint the /metrics output with the in-repo exposition
// parser. It proves the flag wiring end to end, not just the packages.
func TestMetricsSmoke(t *testing.T) {
	addr, _, _ := startCacheserve(t, "-metrics", "-trace-sample", "1", "-trace-slow", "1ms")

	client := &http.Client{Timeout: 5 * time.Second}
	query := func() {
		body := bytes.NewReader([]byte(`{"user":"smoke","query":"what is observability"}`))
		resp, err := client.Post("http://"+addr+"/v1/query", "application/json", body)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}
	query() // miss
	query() // hit

	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	exp, err := obs.ParseExposition(payload)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text exposition: %v\n%s", err, payload)
	}
	for _, check := range []struct {
		name   string
		labels map[string]string
		min    float64
	}{
		{"meancache_queries_total", map[string]string{"result": "hit"}, 1},
		{"meancache_queries_total", map[string]string{"result": "miss"}, 1},
		{"meancache_search_duration_seconds_count", map[string]string{"tier": "flat"}, 2},
		{"meancache_registry_resident_tenants", nil, 1},
	} {
		if v, ok := exp.Value(check.name, check.labels); !ok || v < check.min {
			t.Errorf("%s%v = %v (present %v), want >= %v", check.name, check.labels, v, ok, check.min)
		}
	}

	traces, err := client.Get(fmt.Sprintf("http://%s/v1/debug/traces", addr))
	if err != nil {
		t.Fatalf("fetching /v1/debug/traces: %v", err)
	}
	tbody, _ := io.ReadAll(traces.Body)
	traces.Body.Close()
	if traces.StatusCode != http.StatusOK || !bytes.Contains(tbody, []byte(`"spans"`)) {
		t.Fatalf("/v1/debug/traces status %d, body %s", traces.StatusCode, tbody)
	}
}
