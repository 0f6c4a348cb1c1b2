package flserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/fl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/store/faultfs"
	"repro/internal/tokenizer"
	"repro/internal/train"
)

// tinyArch keeps online-round tests fast; the weight layout is the real
// trainable pipeline, just narrow.
var tinyArch = embed.Arch{
	Name:         "tiny-sim",
	Mode:         tokenizer.WordsAndBigrams,
	Vocab:        1024,
	EmbDim:       32,
	OutDim:       64,
	Trainable:    true,
	AnchorWeight: 0.4,
}

type stubLLM struct{}

func (stubLLM) QueryContext(_ context.Context, q string) (string, time.Duration, error) {
	return "ans: " + q, 0, nil
}

func quickCfg() train.Config {
	cfg := train.DefaultConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 16
	return cfg
}

// harness wires a full serving process with the online FL loop enabled.
type harness struct {
	t       *testing.T
	swap    *embed.Swappable
	reg     *server.Registry
	coll    *Collector
	svc     *Service
	httpSrv *httptest.Server
}

func newHarness(t *testing.T, persistDir string, maxTenants int, st *store.Store) *harness {
	return newHarnessSharded(t, persistDir, maxTenants, 4, st)
}

func newHarnessSharded(t *testing.T, persistDir string, maxTenants, shards int, st *store.Store) *harness {
	t.Helper()
	return newHarnessWrapped(t, persistDir, maxTenants, shards, st, nil)
}

// newHarnessWrapped is newHarnessSharded with every tenant encoding
// through wrap(serving encoder) instead of the serving encoder itself
// (nil wrap: no wrapper).
func newHarnessWrapped(t *testing.T, persistDir string, maxTenants, shards int, st *store.Store, wrap func(embed.Encoder) embed.Encoder) *harness {
	t.Helper()
	swap := embed.NewSwappable(embed.NewModel(tinyArch, 1))
	var enc embed.Encoder = swap
	if wrap != nil {
		enc = wrap(swap)
	}
	coll := NewCollector(CollectorConfig{MaxPairs: 64, Seed: 1})
	hooks := &LateHooks{}
	reg, err := server.NewRegistry(server.RegistryConfig{
		Shards:     shards,
		MaxTenants: maxTenants,
		PersistDir: persistDir,
		Factory: func(string) *core.Client {
			return core.New(core.Options{
				Encoder:      enc,
				LLM:          stubLLM{},
				Tau:          0.83,
				TopK:         4,
				Capacity:     256,
				FeedbackStep: 0.01,
			})
		},
		Hooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Registry:  reg,
		Collector: coll,
		Encoder:   swap,
		Store:     st,
		Train:     quickCfg(),
		Cohort:    2,
		MinPairs:  4,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hooks.Bind(svc)
	srv, err := server.New(server.Config{Registry: reg, Observer: coll})
	if err != nil {
		t.Fatal(err)
	}
	svc.Register(srv)
	h := &harness{t: t, swap: swap, reg: reg, coll: coll, svc: svc, httpSrv: httptest.NewServer(srv.Handler())}
	t.Cleanup(func() { h.httpSrv.Close(); svc.Close() })
	return h
}

func (h *harness) post(path string, body, out any) *http.Response {
	h.t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(h.httpSrv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		h.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}

func (h *harness) get(path string, out any) *http.Response {
	h.t.Helper()
	resp, err := http.Get(h.httpSrv.URL + path)
	if err != nil {
		h.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}

func (h *harness) query(user, text string) server.QueryResponse {
	var qr server.QueryResponse
	h.post("/v1/query", server.QueryRequest{User: user, Query: text}, &qr)
	return qr
}

// seedTraffic drives enough labelled traffic that users become eligible:
// warm queries, exact-duplicate re-asks (hits → positives) and
// missed-duplicate feedback for paraphrases the cold model cannot match.
func (h *harness) seedTraffic(users int) {
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		for i := 0; i < 6; i++ {
			q := fmt.Sprintf("how do i configure widget %d for tenant %d", i, u)
			h.query(user, q)
			// Exact re-ask: guaranteed hit (cosine 1) → tentative positive.
			h.query(user, q)
			// Paraphrase the cold encoder misses → user files missed_dup.
			h.post("/v1/feedback", server.FeedbackRequest{
				User:        user,
				Kind:        server.FeedbackMissedDup,
				Query:       fmt.Sprintf("configure the widget %d on tenant %d", i, u),
				DuplicateOf: q,
			}, nil)
		}
	}
}

func TestOnlineRoundEndToEnd(t *testing.T) {
	h := newHarness(t, "", 0, nil)
	h.seedTraffic(3)

	if got := h.coll.Stats(); got.Positives == 0 {
		t.Fatalf("collector gathered no positives: %+v", got)
	}

	var rep RoundReport
	if resp := h.post("/v1/fl/round", nil, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("round status %d (%+v)", resp.StatusCode, rep)
	}
	if rep.Version == "" || rep.Trained == 0 {
		t.Fatalf("round report incomplete: %+v", rep)
	}
	if rep.Tau <= 0 || rep.Tau > 1 {
		t.Fatalf("aggregated tau %v out of range", rep.Tau)
	}
	if rep.Reembedded == 0 {
		t.Fatal("rollout re-embedded no entries despite warm caches")
	}

	// The serving encoder was hot-swapped: it is no longer the seed model.
	if _, ok := h.swap.Current().(*embed.Model); !ok {
		t.Fatal("serving encoder is not a model after rollout")
	}

	// Status reflects the committed version.
	var st Status
	h.get("/v1/fl/status", &st)
	if st.Current == nil || st.Current.Version != rep.Version {
		t.Fatalf("status current version = %+v, want %s", st.Current, rep.Version)
	}
	if st.Round != 1 || len(st.History) != 1 {
		t.Fatalf("status round=%d history=%d, want 1/1", st.Round, len(st.History))
	}

	// Model metadata and weights are served.
	var rec ModelRecord
	h.get("/v1/model", &rec)
	if rec.Version != rep.Version || rec.Arch != tinyArch.Name {
		t.Fatalf("model metadata %+v", rec)
	}
	resp, err := http.Get(h.httpSrv.URL + "/v1/model?weights=1")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("weights fetch: status %d, %d bytes", resp.StatusCode, len(blob))
	}

	// A second round advances the lineage.
	h.seedTraffic(3)
	var rep2 RoundReport
	h.post("/v1/fl/round", nil, &rep2)
	if rep2.Round != 1 {
		t.Fatalf("second round numbered %d", rep2.Round)
	}
	if v, ok := h.svc.Models().Lookup(rep2.Version); !ok || v.Parent != rep.Version {
		t.Fatalf("second version parent = %q, want %q", v.Parent, rep.Version)
	}

	// Queries still work after two rollouts; an exact re-ask still hits.
	qr := h.query("user-0", "a brand new question after rollout")
	if qr.Hit {
		t.Fatal("fresh question hit")
	}
	if qr2 := h.query("user-0", "a brand new question after rollout"); !qr2.Hit {
		t.Fatal("exact duplicate missed after rollout")
	}
}

func TestRoundWithoutDataFailsCleanly(t *testing.T) {
	h := newHarness(t, "", 0, nil)
	var rep RoundReport
	if resp := h.post("/v1/fl/round", nil, &rep); resp.StatusCode != http.StatusConflict {
		t.Fatalf("dataless round returned %d, want 409", resp.StatusCode)
	}
	if rep.Error == "" {
		t.Fatal("dataless round reported no error")
	}
	var st Status
	h.get("/v1/fl/status", &st)
	if len(st.History) != 1 || st.History[0].Error == "" {
		t.Fatalf("failed round missing from history: %+v", st.History)
	}
}

func TestRevivedTenantMigratesAcrossModelBoundary(t *testing.T) {
	dir := t.TempDir()
	// One shard with MaxTenants 1 forces eviction-to-disk as soon as the
	// next tenant activates.
	h := newHarnessSharded(t, dir, 1, 1, nil)

	// user-a builds a small cache but stays below MinPairs, so the round
	// scheduler never samples (and thereby revives) it.
	h.query("user-a", "what is the capital of atlantis")
	h.query("user-a", "how tall is the eiffel tower")

	// user-t generates the training data — activating it evicts user-a to
	// disk (persisted with no model-version stamp: nothing committed yet).
	h.seedTraffic(1) // drives user-0; call it the trainer
	if h.reg.Resident() != 1 {
		t.Fatalf("resident = %d, want 1 (user-a evicted)", h.reg.Resident())
	}

	// A round commits a new model and rolls it out while user-a is on disk.
	if _, err := h.svc.RunRound(); err != nil {
		t.Fatalf("round: %v", err)
	}
	before := h.svc.RolloutSnapshot()

	// Reviving user-a must migrate its persisted cache to the new space:
	// an exact duplicate still hits under the swapped encoder.
	if qr := h.query("user-a", "what is the capital of atlantis"); !qr.Hit {
		t.Fatal("revived tenant missed an exact duplicate after rollout")
	}
	after := h.svc.RolloutSnapshot()
	if after.ActivationsMigrated != before.ActivationsMigrated+1 {
		t.Fatalf("activation migration not counted: %+v -> %+v", before, after)
	}
}

func TestServicePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	stPath := filepath.Join(dir, "fl.store")
	st, err := store.Open(stPath)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, "", 0, st)
	h.seedTraffic(2)
	rep, err := h.svc.RunRound()
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	if err := h.svc.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// A fresh process resumes: same version, same τ, shards intact.
	st2, err := store.Open(stPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2 := newHarness(t, "", 0, st2)
	rec, ok := h2.svc.Models().Latest()
	if !ok || rec.Version != rep.Version {
		t.Fatalf("restart lost the model version: %+v", rec)
	}
	if got := h2.svc.Tau(); got != rep.Tau {
		t.Fatalf("restart tau = %v, want %v", got, rep.Tau)
	}
	if got := h2.coll.Stats(); got.Pairs == 0 {
		t.Fatal("restart lost the collected shards")
	}
	// And can immediately run the next round from the restored shards.
	rep2, err := h2.svc.RunRound()
	if err != nil {
		t.Fatalf("post-restart round: %v", err)
	}
	if rep2.Round == 0 {
		t.Fatal("round counter reset across restart")
	}
}

// TestFLStoreCompactsAcrossRounds: every round appends a full model
// payload and prunes the version past MaxVersions with a tombstone, so
// the live keys plateau while the log would grow by a payload a round.
// The round compacts the store once the log is over twice its live
// bytes, and a restart from the compacted log resumes the latest version.
func TestFLStoreCompactsAcrossRounds(t *testing.T) {
	stPath := filepath.Join(t.TempDir(), "fl.store")
	st, err := store.Open(stPath)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, "", 0, st)
	h.seedTraffic(2)
	var last RoundReport
	for i := 0; i < 12; i++ {
		if last, err = h.svc.RunRound(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if size, live := st.SizeOnDisk(), st.LiveBytes(); size > 2*live {
			t.Fatalf("after round %d the log is %d bytes for %d live (%d keys): over 2×", i, size, live, st.Len())
		}
	}
	if err := h.svc.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(stPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2 := newHarness(t, "", 0, st2)
	if rec, ok := h2.svc.Models().Latest(); !ok || rec.Version != last.Version {
		t.Fatalf("restart from the compacted store resumed %+v, want version %s", rec, last.Version)
	}
	if got := h2.svc.Round(); got != 12 {
		t.Fatalf("restart resumed at round %d, want 12", got)
	}
}

func TestConcurrentTrafficDuringRounds(t *testing.T) {
	h := newHarness(t, "", 0, nil)
	h.seedTraffic(4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				user := fmt.Sprintf("user-%d", w)
				q := fmt.Sprintf("live question %d from worker %d", i%5, w)
				qr := h.query(user, q)
				if i%3 == 0 && qr.Hit {
					h.post("/v1/feedback", server.FeedbackRequest{
						User: user, Query: q, DuplicateOf: qr.Matched,
					}, nil)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		if _, err := h.svc.RunRound(); err != nil {
			t.Fatalf("round %d under traffic: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()

	var st Status
	h.get("/v1/fl/status", &st)
	if st.Round != 2 || st.Rollouts.Swaps != 2 {
		t.Fatalf("status after concurrent rounds: round=%d swaps=%d", st.Round, st.Rollouts.Swaps)
	}
}

func TestSecureRoundMatchesConfig(t *testing.T) {
	h := newHarness(t, "", 0, nil)
	h.svc.cfg.Secure = true
	h.seedTraffic(2)
	rep, err := h.svc.RunRound()
	if err != nil {
		t.Fatalf("secure round: %v", err)
	}
	if !rep.Secure || rep.Version == "" {
		t.Fatalf("secure round report: %+v", rep)
	}
}

// differing counts the positions where a and b hold different bits.
func differing(a, b []float32) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			n++
		}
	}
	return n
}

// recordingAgg is FedAvg that also records every update it combines.
// With no local epochs a client returns the weights the round sent it,
// so the updates show which weights the round trained from.
type recordingAgg struct {
	fl.FedAvg
	updates []fl.Update
}

func (a *recordingAgg) Aggregate(dst []float32, updates []fl.Update) float64 {
	a.updates = append(a.updates, updates...)
	return a.FedAvg.Aggregate(dst, updates)
}

// TestFailedRoundLeavesGlobalUnchanged: a round whose commit the store
// refuses (ENOSPC) changes nothing. The serving weights, Tau and
// /v1/fl/status's τ stay on the last committed version, and the next
// round trains from that version's weights, not from the ones the failed
// round aggregated.
func TestFailedRoundLeavesGlobalUnchanged(t *testing.T) {
	fs := faultfs.New()
	st, err := store.OpenFS(fs, "fl.store")
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, "", 0, st)
	h.seedTraffic(2)
	first, err := h.svc.RunRound()
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	committed, err := h.svc.Models().Model(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	want := committed.Weights()

	fs.SetSpace(16)
	if _, err := h.svc.RunRound(); err == nil {
		t.Fatal("round 2 committed past the store's space")
	}
	if n := differing(h.swap.Current().(*embed.Model).Weights(), want); n > 0 {
		t.Errorf("after a failed commit the serving model differs from the committed one in %d of %d weights", n, len(want))
	}
	if got := h.svc.Tau(); got != first.Tau {
		t.Errorf("Tau = %v after a failed commit, want the committed %v", got, first.Tau)
	}
	var status Status
	h.get("/v1/fl/status", &status)
	if status.Tau != first.Tau || status.Current == nil || status.Current.Version != first.Version {
		t.Errorf("status after a failed commit: tau %v, current %+v; want tau %v at version %s",
			status.Tau, status.Current, first.Tau, first.Version)
	}

	// The failed write wedged the store. With space free again the next
	// round reopens it in place and trains from the committed version,
	// with no local epochs (so it re-commits that version's content); the
	// two after it train again and commit new versions.
	fs.SetSpace(-1)
	epochs, aggregator := h.svc.cfg.Train.Epochs, h.svc.cfg.Aggregator
	h.svc.cfg.Train.Epochs = 0
	agg := &recordingAgg{}
	h.svc.cfg.Aggregator = agg
	third, err := h.svc.RunRound()
	if err != nil {
		t.Fatalf("round 3, on free space: %v", err)
	}
	if len(agg.updates) == 0 {
		t.Fatal("the round combined no updates")
	}
	for _, u := range agg.updates {
		if n := differing(u.Weights, want); n > 0 {
			t.Fatalf("client %d trained from weights that differ from the committed version in %d of %d", u.ID, n, len(want))
		}
	}
	h.svc.cfg.Train.Epochs, h.svc.cfg.Aggregator = epochs, aggregator
	versions := []string{third.Version}
	for round := 4; round <= 5; round++ {
		rep, err := h.svc.RunRound()
		if err != nil {
			t.Fatalf("round %d, on free space: %v", round, err)
		}
		if slices.Contains(versions, rep.Version) {
			t.Fatalf("round %d committed %s again after %q: it trained, so its model is new", round, rep.Version, versions)
		}
		versions = append(versions, rep.Version)
	}
	if latest, err := st.Get(latestKey); err != nil || string(latest) != versions[2] {
		t.Errorf("the store's latest version is %q (%v), want round 5's %s", latest, err, versions[2])
	}
}

// TestServiceHoldsOneWeightCopy: New keeps no copy of the serving
// model's weights (an mpnet-sim model holds 13.2 MB of them), and after a
// round the committed model is the very model the serving encoder holds.
func TestServiceHoldsOneWeightCopy(t *testing.T) {
	swap := embed.NewSwappable(embed.NewModel(embed.MPNetSim, 1))
	reg, err := server.NewRegistry(server.RegistryConfig{Factory: func(string) *core.Client { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	coll := NewCollector(CollectorConfig{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	svc, err := New(Config{Registry: reg, Collector: coll, Encoder: swap})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("New over an mpnet-sim encoder allocated %d bytes", alloc)
	if alloc >= 1<<20 {
		t.Errorf("New over an mpnet-sim encoder allocated %d bytes, want under 1 MiB", alloc)
	}

	h := newHarness(t, "", 0, nil)
	h.seedTraffic(2)
	rep, err := h.svc.RunRound()
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	m, err := h.svc.Models().Model(rep.Version)
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := h.swap.Current().(*embed.Model); !ok || cur != m {
		t.Fatal("the serving encoder holds a different model than the registry's latest version")
	}
}

// TestRoundReplaysFromSeed: two services built from one seed and fed the
// same traffic draw the same cohort from the same eligible tenants and
// commit the same model, bit for bit, under one pinned version ID. The
// report's counts and the coordinator's RNG state pin the draw; the
// weights pin which tenants' shards trained.
func TestRoundReplaysFromSeed(t *testing.T) {
	var (
		eligible [2][]string
		reps     [2]RoundReport
		weights  [2][]float32
		next     [2]int64
	)
	for i := range reps {
		h := newHarness(t, "", 0, nil)
		h.seedTraffic(6)
		eligible[i] = h.coll.Eligible(h.svc.cfg.MinPairs)
		rep, err := h.svc.RunRound()
		if err != nil {
			t.Fatalf("service %d: round: %v", i, err)
		}
		m, err := h.svc.Models().Model(rep.Version)
		if err != nil {
			t.Fatal(err)
		}
		rep.TookMillis = 0
		reps[i], weights[i], next[i] = rep, m.Weights(), h.svc.rng.Int63()
	}
	if !slices.Equal(eligible[0], eligible[1]) {
		t.Fatalf("eligible tenants %v and %v", eligible[0], eligible[1])
	}
	if reps[0] != reps[1] || next[0] != next[1] {
		t.Fatalf("one seed, two rounds: %+v (next draw %d) and %+v (next draw %d)", reps[0], next[0], reps[1], next[1])
	}
	if n := differing(weights[0], weights[1]); n > 0 {
		t.Fatalf("the committed models differ in %d of %d weights", n, len(weights[0]))
	}
	if pinned := "53e978a6754b42d9"; reps[0].Version != pinned {
		t.Fatalf("round committed version %s, want %s", reps[0].Version, pinned)
	}
}
