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

var (
	// buildingRE matches the first line run logs, before stack.Build.
	buildingRE = regexp.MustCompile(`(serving with an untrained)`)
	listenRE   = regexp.MustCompile(`cacheserve listening on ([0-9.]+:[0-9]+)`)
)

// startCacheserve builds the real binary, starts it with args on a free
// port and waits for a log line matching until, whose first submatch it
// returns (with listenRE, the listen address). Everything the process
// prints is collected in logged; stop signals it and reports how it exited
// (it is also run at cleanup, so a failing test never leaves a server
// behind).
func startCacheserve(t *testing.T, until *regexp.Regexp, args ...string) (match string, logged *bytes.Buffer, stop func(os.Signal) error) {
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
	matched := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(io.TeeReader(stderr, logged))
		for sc.Scan() {
			if m := until.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case matched <- m[1]:
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
	case match = <-matched:
	case <-time.After(10 * time.Second):
		stop(os.Interrupt)
		t.Fatalf("cacheserve never logged %q; log:\n%s", until, logged.String())
	}
	return match, logged, stop
}

// TestSIGTERMFlushesTenants: SIGTERM (kill, docker stop, systemd) must
// take the same shutdown path as ^C — exit status 0 with every resident
// tenant's snapshot on disk — not the runtime's default kill, which lost
// everything the tenants learned since their last eviction. That holds
// whenever the signal lands: while the stack is still being built (a
// handler installed only after readiness dies here every time), the
// moment readiness is announced, and after traffic.
func TestSIGTERMFlushesTenants(t *testing.T) {
	for _, tc := range []struct {
		name  string
		until *regexp.Regexp
		query bool
	}{
		{"during build", buildingRE, false},
		{"at the listen line", listenRE, false},
		{"after a query", listenRE, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			addr, logged, stop := startCacheserve(t, tc.until, "-persist-dir", dir)
			tenants := 0
			if tc.query {
				body := bytes.NewReader([]byte(`{"user":"sigterm","query":"does kill lose my cache"}`))
				resp, err := http.Post("http://"+addr+"/v1/query", "application/json", body)
				if err != nil {
					t.Fatalf("query: %v", err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("query status %d", resp.StatusCode)
				}
				tenants = 1
			}
			if err := stop(syscall.SIGTERM); err != nil {
				t.Fatalf("exit after SIGTERM: %v; log:\n%s", err, logged)
			}
			if snaps, _ := filepath.Glob(filepath.Join(dir, "*.cache")); len(snaps) != tenants {
				t.Errorf("%d tenant snapshots in -persist-dir after SIGTERM, want %d; log:\n%s", len(snaps), tenants, logged)
			}
			if want := fmt.Sprintf("flushed %d resident tenants", tenants); !bytes.Contains(logged.Bytes(), []byte(want)) {
				t.Errorf("no %q line in the log:\n%s", want, logged)
			}
		})
	}
}

// TestMetricsSmoke is the CI observability smoke: build the real binary,
// start it with tracing on (metrics need no flag), drive a miss + hit
// through /v1/query, and lint the /metrics output with the in-repo
// exposition parser. It proves the wiring end to end, not just the
// packages.
func TestMetricsSmoke(t *testing.T) {
	addr, _, _ := startCacheserve(t, listenRE, "-trace-sample", "1", "-trace-slow", "1ms")

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
