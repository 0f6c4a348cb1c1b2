package fl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/vecmath"
)

// fixedClient returns a canned update, letting the tests control the
// plaintext exactly.
type fixedClient struct {
	id      int
	weights []float32
	tau     float64
	samples int
}

func (f *fixedClient) ID() int { return f.id }
func (f *fixedClient) TrainRound([]float32, float64) (Update, error) {
	return Update{Weights: vecmath.Clone(f.weights), Tau: f.tau, Samples: f.samples}, nil
}

func TestPairwiseSeedSymmetric(t *testing.T) {
	if PairwiseSeed(5, 3, 9) != PairwiseSeed(5, 9, 3) {
		t.Fatal("pairwise seed not symmetric in client order")
	}
	if PairwiseSeed(5, 3, 9) == PairwiseSeed(6, 3, 9) {
		t.Fatal("pairwise seed ignores the round")
	}
	if PairwiseSeed(5, 3, 9) == PairwiseSeed(5, 3, 8) {
		t.Fatal("pairwise seed ignores the pair")
	}
}

func TestMasksCancelExactly(t *testing.T) {
	dim := 64
	roster := []int{2, 7, 11, 20}
	sum := make([]float32, dim)
	for _, id := range roster {
		v := make([]float32, dim)
		MaskUpdate(v, id, roster, 42, 1.0)
		vecmath.Axpy(1, v, sum)
	}
	for i, s := range sum {
		if math.Abs(float64(s)) > 1e-4 {
			t.Fatalf("masks did not cancel at %d: residue %v", i, s)
		}
	}
}

// secureRound runs one cohort round through SecureAgg.
func secureRound(t *testing.T, clients []Client, dim int, seed int64, tolerate bool) CohortResult {
	t.Helper()
	res, err := RunCohort(clients, make([]float32, dim), 0.7, SecureAgg{Seed: seed, MaskScale: 1}, tolerate)
	if err != nil {
		t.Fatalf("RunCohort(SecureAgg): %v", err)
	}
	return res
}

// randomFixedClients returns n canned clients with IDs 0, 3, 6, …,
// distinct thresholds and unequal sample counts.
func randomFixedClients(seed int64, n, dim int) []Client {
	rng := rand.New(rand.NewSource(seed))
	clients := make([]Client, n)
	for i := range clients {
		w := make([]float32, dim)
		for j := range w {
			w[j] = float32(rng.NormFloat64())
		}
		clients[i] = &fixedClient{id: i * 3, weights: w, tau: 0.5 + 0.1*float64(i), samples: 1 + i}
	}
	return clients
}

// fedAvgOf is plaintext FedAvg over the clients' canned updates.
func fedAvgOf(clients []Client, dim int) ([]float32, float64) {
	var updates []Update
	for _, c := range clients {
		fc := c.(*fixedClient)
		updates = append(updates, Update{Weights: fc.weights, Tau: fc.tau, Samples: fc.samples})
	}
	want := make([]float32, dim)
	return want, FedAvg{}.Aggregate(want, updates)
}

func assertNearFedAvg(t *testing.T, res CohortResult, want []float32, wantTau float64) {
	t.Helper()
	for i := range want {
		if math.Abs(float64(res.Weights[i]-want[i])) > 1e-3 {
			t.Fatalf("secure aggregate differs from FedAvg at %d: %v vs %v", i, res.Weights[i], want[i])
		}
	}
	if math.Abs(res.Tau-wantTau) > 1e-12 {
		t.Fatalf("secure tau %v != FedAvg tau %v", res.Tau, wantTau)
	}
}

func TestSecureRoundMatchesFedAvg(t *testing.T) {
	const dim = 128
	clients := randomFixedClients(1, 5, dim)
	want, wantTau := fedAvgOf(clients, dim)
	assertNearFedAvg(t, secureRound(t, clients, dim, 99, false), want, wantTau)
}

// secureRoundReference is secure aggregation written out one step at a
// time: every client's update, in cohort order, scaled by its share of
// the samples and masked against the whole cohort, then the masked
// vectors summed into zeroed weights.
func secureRoundReference(clients []Client, dim int, roundSeed int64) ([]float32, float64) {
	roster := make([]int, len(clients))
	updates := make([]Update, len(clients))
	total := 0
	for i, c := range clients {
		roster[i] = c.ID()
		updates[i], _ = c.TrainRound(nil, 0)
		total += updates[i].Samples
	}
	agg := make([]float32, dim)
	var tau float64
	masked := make([][]float32, len(clients))
	for i, u := range updates {
		coef := float32(u.Samples) / float32(total)
		masked[i] = make([]float32, dim)
		for j, w := range u.Weights {
			masked[i][j] = coef * w
		}
		MaskUpdate(masked[i], clients[i].ID(), roster, roundSeed, 1)
		tau += float64(u.Samples) / float64(total) * u.Tau
	}
	for _, m := range masked {
		vecmath.Axpy(1, m, agg)
	}
	return agg, tau
}

// TestSecureRoundBitIdenticalToReference: with no failures, a secure round
// through RunCohort produces the same weights and τ, bit for bit, as the
// scale-mask-sum sequence above.
func TestSecureRoundBitIdenticalToReference(t *testing.T) {
	const dim = 257
	clients := randomFixedClients(4, 6, dim)
	res := secureRound(t, clients, dim, 31, false)
	want, wantTau := secureRoundReference(clients, dim, 31)
	for i := range want {
		if math.Float32bits(res.Weights[i]) != math.Float32bits(want[i]) {
			t.Fatalf("weight %d: %v, reference %v", i, res.Weights[i], want[i])
		}
	}
	if math.Float64bits(res.Tau) != math.Float64bits(wantTau) {
		t.Fatalf("tau %v, reference %v", res.Tau, wantTau)
	}
}

// TestSecureRoundDropsFailedClients: a client that fails mid-round is
// left out of the roster, so the survivors' masks still cancel and the
// round lands on FedAvg over the survivors.
func TestSecureRoundDropsFailedClients(t *testing.T) {
	const dim = 128
	survivors := randomFixedClients(5, 4, dim)
	clients := append([]Client{}, survivors[:2]...)
	clients = append(clients, &flakyClient{id: 100, fail: true})
	clients = append(clients, survivors[2:]...)
	res := secureRound(t, clients, dim, 17, true)
	if len(res.Failed) != 1 || res.Failed[0] != 100 || len(res.Trained) != len(survivors) {
		t.Fatalf("trained %v failed %v, want the 4 survivors and client 100", res.Trained, res.Failed)
	}
	want, wantTau := fedAvgOf(survivors, dim)
	assertNearFedAvg(t, res, want, wantTau)
}

// recordingAgg keeps the updates RunCohort hands its aggregator.
type recordingAgg struct {
	SecureAgg
	seen []Update
}

func (r *recordingAgg) Aggregate(dst []float32, updates []Update) float64 {
	r.seen = updates
	return r.SecureAgg.Aggregate(dst, updates)
}

// The server-visible masked update must be statistically unlike the
// plaintext: correlation with the true update ≈ 0 when masks dominate.
func TestMaskedUpdateHidesPlaintext(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 2048
	w := make([]float32, dim)
	for j := range w {
		w[j] = float32(rng.NormFloat64() * 0.01) // realistic update magnitude
	}
	clients := []Client{
		&fixedClient{id: 0, weights: w, tau: 0.5, samples: 1},
		&fixedClient{id: 1, weights: make([]float32, dim), tau: 0.5, samples: 1},
		&fixedClient{id: 2, weights: make([]float32, dim), tau: 0.5, samples: 1},
	}
	agg := &recordingAgg{SecureAgg: SecureAgg{Seed: 7, MaskScale: 1}}
	if _, err := RunCohort(clients, make([]float32, dim), 0.7, agg, false); err != nil {
		t.Fatalf("RunCohort: %v", err)
	}
	roster := []int{agg.seen[0].ID, agg.seen[1].ID, agg.seen[2].ID}
	if roster[0] != 0 || roster[1] != 1 || roster[2] != 2 {
		t.Fatalf("RunCohort stamped IDs %v, want [0 1 2]", roster)
	}
	masked := agg.masked(agg.seen[0], roster, 3)
	if corr := math.Abs(float64(vecmath.Cosine(masked, w))); corr > 0.1 {
		t.Fatalf("masked update correlates with plaintext: |cos| = %v", corr)
	}
}

func TestSecureRoundWithRealClients(t *testing.T) {
	if testing.Short() {
		t.Skip("secure-round training test skipped in -short mode")
	}
	corpus := flCorpus()
	shards := dataset.SplitPairs(corpus.Train, 3, rand.New(rand.NewSource(5)))
	clients := make([]Client, 3)
	for i := range clients {
		clients[i] = NewLocalClient(i, flArch, 7, shards[i], quickTrainCfg(), 1)
	}
	global := embed.NewModel(flArch, 7)
	res, err := RunCohort(clients, global.Weights(), 0.7, SecureAgg{Seed: 11, MaskScale: 1}, false)
	if err != nil {
		t.Fatalf("RunCohort(SecureAgg): %v", err)
	}
	if res.Tau <= 0 || res.Tau > 1 {
		t.Fatalf("aggregated tau = %v", res.Tau)
	}
	// The aggregate must install cleanly and produce a working encoder.
	global.SetWeights(res.Weights)
	e := global.Encode("does the aggregated model still encode")
	if vecmath.Norm(e) == 0 {
		t.Fatal("aggregated model produces zero embeddings")
	}
}

func TestSecureRoundErrors(t *testing.T) {
	agg := SecureAgg{Seed: 1, MaskScale: 1}
	if _, err := RunCohort(nil, nil, 0.7, agg, false); err == nil {
		t.Fatal("empty client list accepted")
	}
	bad := []Client{&fixedClient{id: 0, weights: []float32{1, 2}, samples: 1}}
	if _, err := RunCohort(bad, make([]float32, 3), 0.7, agg, false); err == nil {
		t.Fatal("mismatched weight length accepted")
	}
}
