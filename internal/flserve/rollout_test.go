package flserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/server"
)

// holdingEncoder parks every Encode of a text starting with "hold "
// while armed, until release is closed, and records how many are parked
// at once. A tenant whose one cached entry is such a text therefore
// holds its rollout re-embed mid-flight.
type holdingEncoder struct {
	embed.Encoder
	armed   atomic.Bool
	release chan struct{}

	mu              sync.Mutex
	parked, maxSeen int
}

func (e *holdingEncoder) Encode(text string) []float32 {
	if e.armed.Load() && strings.HasPrefix(text, "hold ") {
		e.mu.Lock()
		e.parked++
		e.maxSeen = max(e.maxSeen, e.parked)
		e.mu.Unlock()
		<-e.release
		e.mu.Lock()
		e.parked--
		e.mu.Unlock()
	}
	return e.Encoder.Encode(text)
}

func (e *holdingEncoder) counts() (parked, maxSeen int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parked, e.maxSeen
}

// queryAsync posts one query and delivers its reply (or transport error)
// on the returned channel, so a caller can bound how long it waits.
func (h *harness) queryAsync(user, text string) <-chan error {
	done := make(chan error, 1)
	go func() {
		raw, _ := json.Marshal(server.QueryRequest{User: user, Query: text})
		resp, err := http.Post(h.httpSrv.URL+"/v1/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			done <- err
			return
		}
		if !qr.Hit {
			done <- fmt.Errorf("%s: %q missed", user, text)
			return
		}
		done <- nil
	}()
	return done
}

// TestRolloutBoundsReembedsAndRevivalsProceed: a rollout re-embeds at
// most rolloutParallel tenants at once, and while those re-embeds are
// held mid-flight a revival that must re-embed its cache completes, and
// so does a request for another resident tenant in the same shard. The
// registry has one shard, so every tenant shares the revival's lock.
func TestRolloutBoundsReembedsAndRevivalsProceed(t *testing.T) {
	enc := &holdingEncoder{release: make(chan struct{})}
	h := newHarnessWrapped(t, t.TempDir(), 0, 1, nil, func(e embed.Encoder) embed.Encoder {
		enc.Encoder = e
		return enc
	})
	// Registered after the harness's cleanup, so it runs first: the
	// server's Close waits for requests a held rollout would block.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(enc.release) }) }
	t.Cleanup(release)

	// user-r is on disk, stamped with no model version, when the round
	// rolls out: reviving it afterwards must re-embed its cache.
	const revived = "what is the capital of atlantis"
	h.query("user-r", revived)
	if ok, err := h.reg.Drain("user-r", time.Second); !ok || err != nil {
		t.Fatalf("drain user-r: resident=%v err=%v", ok, err)
	}
	h.seedTraffic(1) // user-0 is the round's only eligible tenant
	const held = 3   // more than rolloutParallel, so the bound is what stops the third
	for i := 0; i < held; i++ {
		h.query(fmt.Sprintf("held-%d", i), fmt.Sprintf("hold the re-embed of tenant %d", i))
	}
	const resident = "a resident tenant the rollout never holds"
	h.query("user-b", resident)

	enc.armed.Store(true)
	round := make(chan error, 1)
	go func() { _, err := h.svc.RunRound(); round <- err }()

	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if parked, _ := enc.counts(); parked >= rolloutParallel {
			break
		}
		if time.Now().After(deadline) {
			parked, _ := enc.counts()
			t.Fatalf("%d rollout re-embeds parked, want %d", parked, rolloutParallel)
		}
	}
	for _, q := range []struct{ user, text string }{
		{"user-r", revived},  // revival: re-embeds under the shard lock
		{"user-b", resident}, // another tenant in that shard
	} {
		select {
		case err := <-h.queryAsync(q.user, q.text):
			if err != nil {
				t.Errorf("while the rollout is held: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s's request waited on the held rollout", q.user)
		}
	}
	if got := h.svc.RolloutSnapshot().ActivationsMigrated; got != 1 {
		t.Errorf("activations migrated = %d, want 1 (user-r's revival)", got)
	}

	release()
	if err := <-round; err != nil {
		t.Fatalf("round: %v", err)
	}
	if _, maxSeen := enc.counts(); maxSeen != rolloutParallel {
		t.Errorf("%d rollout re-embeds ran at once, want %d", maxSeen, rolloutParallel)
	}
}

// modelVersion reads a resident tenant's model-version stamp ("" when it
// is not resident) without activating it.
func (h *harness) modelVersion(user string) (v string) {
	h.reg.Range(func(t *server.Tenant) {
		if t.ID == user {
			v = t.ModelVersion()
		}
	})
	return v
}

// TestActivationStampsServingVersion: a version committed but not yet
// rolled out is not what the serving encoder holds, so a tenant revived
// in that window keeps the serving version's stamp. Stamping the
// committed version would mark vectors the old encoder produced as
// migrated, and later revivals would skip the re-embed they need.
func TestActivationStampsServingVersion(t *testing.T) {
	h := newHarnessSharded(t, t.TempDir(), 0, 1, nil)
	h.query("user-a", "what is the capital of atlantis")
	h.seedTraffic(1)
	rep, err := h.svc.RunRound()
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	if got := h.modelVersion("user-a"); got != rep.Version {
		t.Fatalf("rollout stamped user-a %q, want %q", got, rep.Version)
	}
	if ok, err := h.reg.Drain("user-a", time.Second); !ok || err != nil {
		t.Fatalf("drain user-a: resident=%v err=%v", ok, err)
	}

	// Commit a second version without rolling it out.
	m, err := h.svc.Models().Model(rep.Version)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Weights()
	w[0] += 1
	next, err := h.svc.Models().Commit(ModelRecord{
		Round: rep.Round + 1, Arch: tinyArch.Name, Dim: tinyArch.OutDim, Tau: rep.Tau,
	}, w)
	if err != nil || next.Version == rep.Version {
		t.Fatalf("second commit: %+v, %v", next, err)
	}

	before := h.svc.RolloutSnapshot()
	h.query("user-a", "what is the capital of atlantis") // revives user-a
	if got := h.modelVersion("user-a"); got != rep.Version {
		t.Fatalf("revived user-a stamped %q, want the serving version %q (committed, not served: %q)",
			got, rep.Version, next.Version)
	}
	if after := h.svc.RolloutSnapshot(); after.ActivationsMigrated != before.ActivationsMigrated {
		t.Errorf("revival re-embedded a cache persisted under the serving version: %+v -> %+v", before, after)
	}
}
