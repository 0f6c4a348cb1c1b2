package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/embed"
)

// tinyWorkloads are the four generators at sizes a unit test can afford:
// the same code paths as buildWorkload, fewer users and requests.
func tinyWorkloads(seed int64) []*workload {
	big := standalone("big_tenant", seed, 2, 12, 9, 0.5)
	big.Rounds = 1
	return []*workload{
		standalone("small_tenants", seed, 6, 4, 9, 0.9),
		big,
		evictChurn(seed, 24, 3, 4, 90),
		contextual(seed, 4, 12),
	}
}

// measuredCount is the number of measured requests over all segments.
func (w *workload) measuredCount() int {
	n := 0
	for _, list := range w.Measured {
		n += len(list)
	}
	return n
}

func TestWorkloadsRepeatFromSeed(t *testing.T) {
	a, b, c := tinyWorkloads(7), tinyWorkloads(7), tinyWorkloads(8)
	for i := range a {
		ja, _ := json.Marshal(a[i])
		jb, _ := json.Marshal(b[i])
		jc, _ := json.Marshal(c[i])
		if string(ja) != string(jb) {
			t.Errorf("%s: same seed gave different request lists", a[i].Name)
		}
		if string(ja) == string(jc) {
			t.Errorf("%s: different seeds gave the same request lists", a[i].Name)
		}
		if a[i].measuredCount() == 0 || len(a[i].Warmup[0]) == 0 || len(a[i].Warmup[1]) == 0 {
			t.Errorf("%s: empty lists", a[i].Name)
		}
	}
}

// Every user's requests travel on one client, and a context turn is never
// separated from the query it precedes by a segment boundary.
func TestWorkloadOwnershipAndRoundCuts(t *testing.T) {
	for _, w := range tinyWorkloads(3) {
		for k := range w.Warmup {
			for _, req := range w.Warmup[k] {
				if req.User%warmClients != k {
					t.Fatalf("%s: warm-up of user %d on connection %d", w.Name, req.User, k)
				}
			}
		}
		total := 0
		if segments%w.Rounds != 0 {
			t.Errorf("%s: %d rounds do not divide %d segments", w.Name, w.Rounds, segments)
		}
		for r := 0; r < segments; r++ {
			for c, list := range w.segment(r) {
				total += len(list)
				for _, req := range list {
					if req.User%numClients != c {
						t.Fatalf("%s: user %d measured on client %d", w.Name, req.User, c)
					}
				}
				if n := len(list); n > 0 && list[n-1].Label == labelNone {
					t.Errorf("%s segment %d client %d ends on a context turn", w.Name, r, c)
				}
			}
		}
		if total != w.measuredCount() {
			t.Errorf("%s: segments carry %d of %d measured requests", w.Name, total, w.measuredCount())
		}
		for c, list := range w.tracedPrefix() {
			if n := len(list); n == 0 || list[n-1].Label == labelNone {
				t.Errorf("%s: traced prefix of client %d is empty or ends on a context turn", w.Name, c)
			}
		}
	}
}

func TestPercentileAndTailSupport(t *testing.T) {
	v := make([]float64, 101)
	for i := range v {
		v[i] = float64(i)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.999, 99.9}} {
		if got := percentile(v, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("single sample percentile = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false}, {200, 0.95, true}} {
		if got := tenBeyond(tc.n, tc.p); got != tc.want {
			t.Errorf("tenBeyond(%d, %v) = %v", tc.n, tc.p, got)
		}
	}
}

func TestConfusion(t *testing.T) {
	var c confusion
	for _, d := range []struct {
		label int8
		hit   bool
	}{{labelDup, true}, {labelDup, true}, {labelDup, false}, {labelNonDup, true}, {labelNonDup, false}, {labelNone, true}} {
		c.add(d.label, d.hit)
	}
	if c != (confusion{TP: 2, FP: 1, FN: 1, TN: 1}) {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.f1(); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("f1 = %v", got)
	}
	if got := c.falseHitRate(); got != 0.5 {
		t.Errorf("falseHitRate = %v", got)
	}
}

func metricsByName(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// checkLedgerIdentity asserts the two sums the layer view promises.
func checkLedgerIdentity(t *testing.T, l ledger) {
	t.Helper()
	m := metricsByName(l.metrics())
	if got, want := m["net.transport_us"]+m["server.handler_us"], m["trace.client_rtt_mean_us"]; math.Abs(got-want) > 1e-6 {
		t.Errorf("transport + handler = %v, client RTT mean = %v", got, want)
	}
	children := m["server.encode_outer_us_per_req"] + m["cache.search_us_per_req"] + m["llmsim.call_us_per_req"] +
		m["store.io_us_per_kreq"]/1000 + m["server.tenant_build_us_per_req"]
	if got, want := children+m["server.self_us"], m["server.handler_us"]; math.Abs(got-want) > 1e-6 {
		t.Errorf("children + self = %v, handler = %v", got, want)
	}
}

func TestLedgerIdentityOnSyntheticSpans(t *testing.T) {
	spans := []span{
		{Name: spanClient, Start: 5, End: 50, Req: 0}, // warm-up: outside the window
		{Name: spanClient, Start: 100, End: 2100, Parent: -1, Req: 1},
		{Name: spanHandler, Start: 200, End: 1900, Parent: 1, Req: 1},
		{Name: spanEncodeOuter, Start: 210, End: 1210, Parent: 2, Req: 1, N: 1},
		{Name: spanEncodeInner, Start: 1000, End: 1200, Parent: 3, Req: 1, N: 2},
		{Name: spanSearch, Start: 1220, End: 1300, Parent: 2, Req: 1, N: 3},
		{Name: spanLLM, Start: 1310, End: 1350, Parent: 2, Req: 1, N: 7e8},
		{Name: spanTenantBuild, Start: 201, End: 205, Parent: 2, Req: 1},
		{Name: spanStoreWrite, Start: 1400, End: 1500, Parent: 2, Req: 1, N: 4096},
		{Name: spanStoreFsync, Start: 1500, End: 1800, Parent: 2, Req: 1},
		{Name: spanClient, Start: 150, End: 1150, Parent: -1, Req: 2},
		{Name: spanHandler, Start: 250, End: 1050, Parent: 10, Req: 2},
		{Name: spanEncodeOuter, Start: 260, End: 1000, Parent: 11, Req: 2, N: 1},
	}
	l := newLedger(spans, 100, 3000)
	if l.Requests != 2 || l.StoreOps != 2 || l.Fsyncs != 1 || l.BytesWritten != 4096 || l.InnerTexts != 2 {
		t.Fatalf("ledger = %+v", l)
	}
	checkLedgerIdentity(t, l)
	m := metricsByName(l.metrics())
	// Two outer encodes of 1000 + 740 ns; one inner call of 200 ns served two texts.
	if got, want := m["server.encode_wait_us"], (1740.0-400.0)/2/1e3; math.Abs(got-want) > 1e-9 {
		t.Errorf("encode_wait_us = %v, want %v", got, want)
	}
	if got, want := m["server.self_us"], (1700.0+800.0-1740-80-40-4-400)/2/1e3; math.Abs(got-want) > 1e-9 {
		t.Errorf("self_us = %v, want %v", got, want)
	}
}

// replayPlain drives w through an undecorated in-process stack and
// returns the replies to the traced prefix.
func replayPlain(t *testing.T, w *workload, model *embed.Model, tau float64) [][]reply {
	t.Helper()
	dir := ""
	if w.Persist {
		dir = t.TempDir()
	}
	st, err := newStack(model, tau, w.MaxTenants, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	drive(st.srv.Addr(), w.Warmup[:], 0, nil)
	return drive(st.srv.Addr(), w.tracedPrefix(), 0, nil)
}

// The decorated stack must be the program shipped: the same hit, miss
// and matched sequence as the plain stack, request for request; every
// span attributed; the ledger identities holding on real spans; and the
// metric names equal to BENCHMARK.json's.
func TestTracedStackMatchesPlainStack(t *testing.T) {
	runDir = t.TempDir()
	defer func() { runDir = "" }()
	// An untrained encoder still maps equal text to equal vectors, and at
	// this τ paraphrases hit often enough to exercise both paths.
	env := &buildEnv{Encoder: embed.NewModel(embed.MPNetSim, 1), Model: modelMeta{Tau: 0.7}}
	perLayer := map[string]bool{"trace.overhead_frac": true}
	for _, w := range tinyWorkloads(11) {
		plain := replayPlain(t, w, env.Encoder, env.Model.Tau)
		tr, err := runTraced(env, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if tr.Failed != 0 || tr.WarmFailed != 0 {
			t.Errorf("%s: traced replay failed the output check (%d measured, %d warm-up)", w.Name, tr.Failed, tr.WarmFailed)
		}
		hits := 0
		for c := range plain {
			for i := range plain[c] {
				p, q := plain[c][i], tr.Replies[c][i]
				if p.Err != nil || q.Err != nil {
					t.Fatalf("%s client %d request %d: errors %v / %v", w.Name, c, i, p.Err, q.Err)
				}
				if p.Hit != q.Hit || p.Matched != q.Matched || p.Response != q.Response {
					t.Fatalf("%s client %d request %d: plain (hit=%v matched=%q) vs traced (hit=%v matched=%q)",
						w.Name, c, i, p.Hit, p.Matched, q.Hit, q.Matched)
				}
				if p.Hit {
					hits++
				}
			}
		}
		if hits == 0 || hits == tr.Sent {
			t.Errorf("%s: %d hits of %d: the comparison exercised one path only", w.Name, hits, tr.Sent)
		}
		checkLedgerIdentity(t, tr.Ledger)
		for i, s := range tr.Tracer.spans {
			// Registry start-up touches the persist dir before any request.
			startup := s.Name == "store.mkdir" || s.Name == "store.readdir"
			if s.Req < 0 && !startup {
				t.Errorf("%s: span %d (%s) has no request", w.Name, i, s.Name)
			}
			if s.Parent >= 0 && tr.Tracer.spans[s.Parent].Req != s.Req {
				t.Errorf("%s: span %d (%s) and its parent are of different requests", w.Name, i, s.Name)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) never ended", w.Name, i, s.Name)
			}
		}
		m := metricsByName(tr.Layer)
		if w.Persist {
			if m["server.activations_per_kreq"] == 0 || m["store.fsyncs_per_kreq"] == 0 || m["store.bytes_read_per_kreq"] == 0 {
				t.Errorf("%s: no tenant churn reached the store decorator: %v", w.Name, m)
			}
		} else if m["server.activations_per_kreq"] != 0 || m["store.io_us_per_kreq"] != 0 {
			t.Errorf("%s: store or activation counters read non-zero without -persist-dir", w.Name)
		}
		if w.Name == "contextual" && m["embed.encodes_per_req"] <= 1 {
			t.Errorf("contextual: encodes_per_req = %v, want > 1", m["embed.encodes_per_req"])
		}
		for _, m := range tr.Layer {
			perLayer[m.Name] = true
		}
	}
	probes, err := directProbes(tinyWorkloads(11)[0], env.Encoder, env.Model.Tau)
	if err != nil {
		t.Fatalf("probes: %v", err)
	}
	for _, m := range probes {
		if m.Value <= 0 || math.IsNaN(m.Value) {
			t.Errorf("probe %s = %v", m.Name, m.Value)
		}
		perLayer[m.Name] = true
	}

	// BENCHMARK.json and the code must name the same metrics.
	u := &untraced{Rounds: make([]roundResult, 1), Stats: make([]segmentStats, 1)}
	for _, m := range u.clientLayer(env) {
		perLayer[m.Name] = true
	}
	endToEnd := map[string]bool{}
	for _, m := range u.endToEnd() {
		endToEnd[m.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, e := range list {
			out = append(out, e.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(set map[string]bool) []string {
		var out []string
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if got, want := names(contract.EndToEnd), keys(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v\ncode emits %v", got, want)
	}
	if got, want := names(contract.PerLayer), keys(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v\ncode emits %v", got, want)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(want)
	if got := names(contract.Workloads); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads = %v, code has %v", got, want)
	}
}

func TestCheckerCatchesViolations(t *testing.T) {
	chk := newChecker()
	answer := func(q string) string { r, _ := chk.llm.Query(q); return r }
	list := []request{
		{User: 0, Query: "how do i sort a list"},
		{User: 0, Query: "how to sort a list"},
		{User: 1, Query: "what is a goroutine"},
		{User: 1, Query: "explain goroutines"},
		{User: 1, Query: "explain channels"},
	}
	replies := []reply{
		{Response: answer(list[0].Query)},
		{Hit: true, Matched: list[0].Query, Response: answer(list[0].Query)},
		// user 1 is served user 0's entry: tenant isolation broken
		{Hit: true, Matched: list[0].Query, Response: answer(list[0].Query)},
		// a miss answered with another query's response
		{Response: answer(list[2].Query)},
		// a hit whose text is not the upstream's answer to what it cites
		{Hit: true, Matched: list[2].Query, Response: "stale"},
	}
	chk.check(list, replies)
	for i, wantErr := range []bool{false, false, true, true, true} {
		if (replies[i].Err != nil) != wantErr {
			t.Errorf("reply %d: err = %v, want error %v", i, replies[i].Err, wantErr)
		}
	}
	if chk.failed != 3 {
		t.Errorf("failed = %d, want 3", chk.failed)
	}
}
