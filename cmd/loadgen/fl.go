package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/flserve"
	"repro/internal/server"
)

// flWorkload holds the shared-lexicon, private-intent workload: one
// dataset generator (so every user's vocabulary hashes into the same
// token space and federated averaging pools knowledge, as with the
// paper's common corpus), but each user warms a disjoint intent set —
// their private data, which never leaves their tenant.
type flWorkload struct {
	gen    *dataset.Generator
	rng    *rand.Rand
	probes int // per user per phase
	dup    float64

	// per user: warmed intents and their cached realisations
	intents [][]dataset.Intent
	cachedQ [][]string
}

func newFLWorkload(seed int64, users, cached, probes int, dup float64) *flWorkload {
	corpusCfg := dataset.DefaultConfig()
	corpusCfg.Seed = seed
	rng := rand.New(rand.NewSource(seed + 5000))
	w := &flWorkload{
		gen:     dataset.NewGenerator(corpusCfg, rng),
		rng:     rng,
		probes:  probes,
		dup:     dup,
		intents: make([][]dataset.Intent, users),
		cachedQ: make([][]string, users),
	}
	nextID := 0
	for u := range w.intents {
		w.intents[u] = make([]dataset.Intent, cached)
		w.cachedQ[u] = make([]string, cached)
		for i := range w.intents[u] {
			w.intents[u][i] = w.gen.NewIntent(nextID)
			nextID++
			w.cachedQ[u][i] = w.gen.Realize(w.intents[u][i])
		}
	}
	return w
}

func (w *flWorkload) shuffle(jobs []job) []job {
	w.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// warmupJobs populates every user's cache.
func (w *flWorkload) warmupJobs() []job {
	var jobs []job
	for u, cached := range w.cachedQ {
		for _, q := range cached {
			jobs = append(jobs, job{user: userName(u), text: q})
		}
	}
	return w.shuffle(jobs)
}

// phaseJobs builds one measurement phase: per user, fresh probe
// realisations — duplicates of warmed intents (never repeating an earlier
// phase's exact text) and brand-new intents, hard negatives included at
// the corpus rate.
func (w *flWorkload) phaseJobs() []job {
	var jobs []job
	cfg := dataset.DefaultConfig() // hard-negative rates only
	nDup := int(float64(w.probes)*w.dup + 0.5)
	for u, intents := range w.intents {
		for i := 0; i < w.probes; i++ {
			j := job{user: userName(u)}
			if i < nDup {
				idx := w.rng.Intn(len(intents))
				j.text = w.gen.Realize(intents[idx])
				j.dup = true
				j.dupText = w.cachedQ[u][idx]
			} else {
				var it dataset.Intent
				if w.rng.Float64() < cfg.HardNegativeRate {
					base := intents[w.rng.Intn(len(intents))]
					it = w.gen.NewIntentSharing(-1, base, cfg.SharedConcepts)
				} else {
					it = w.gen.NewIntent(-1)
				}
				j.text = w.gen.Realize(it)
			}
			jobs = append(jobs, j)
		}
	}
	return w.shuffle(jobs)
}

// feedbackFor plays the user's role in the online FL loop: a duplicate
// the cache failed to serve is reported as missed_dup (pointing at the
// earlier question), a hit on a genuinely new query as false_hit. Correct
// outcomes need no report — the hit itself already taught the collector a
// positive pair.
func feedbackFor(j job, qr server.QueryResponse) (server.FeedbackRequest, bool) {
	switch {
	case j.dup && !qr.Hit && j.dupText != "":
		return server.FeedbackRequest{
			User: j.user, Kind: server.FeedbackMissedDup,
			Query: j.text, DuplicateOf: j.dupText,
		}, true
	case !j.dup && qr.Hit:
		return server.FeedbackRequest{
			User: j.user, Kind: server.FeedbackFalseHit,
			Query: j.text, DuplicateOf: qr.Matched,
		}, true
	}
	return server.FeedbackRequest{}, false
}

// postJSON posts in (nil = empty body) to path on the first entry and
// decodes the reply into out (nil = discard), whatever its status.
func (t *target) postJSON(path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, _ := json.Marshal(in)
		body = bytes.NewReader(raw)
	}
	resp, err := t.client.Post(t.entries()[0]+path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return nil
}

func (t *target) flStatus() (flserve.Status, error) {
	var st flserve.Status
	err := t.getJSON("/v1/fl/status", &st)
	return st, err
}

// runFL drives the online federated-learning scenario: baseline phase
// under the frozen model, then rounds of (feedback-annotated probes → FL
// round → rollout → fresh probes), reporting the quality trajectory.
func runFL(t *target, e env) ([]gate, error) {
	log.Printf("online FL scenario: %d users sharing one lexicon, %d warmed intents each, %d probes/phase, %d rounds",
		e.users, e.cached, e.probes, e.flRounds)
	w := newFLWorkload(e.seed, e.users, e.cached, e.probes, e.dup)

	warmup := w.warmupJobs()
	log.Printf("warmup: %d queries", len(warmup))
	warm := newPhase()
	t.run(warm, warmup, e.concurrency, nil)
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warmup: %s", warm.failures())
	}

	// FL rounds (training + rollout) can take minutes.
	rounds := newTarget(10*time.Minute, t.entries()...)

	type row struct {
		label, version string
		tau            float64
		p              *phase
		roundMS        int64
	}
	var rows []row
	requestErrors := 0
	var feedbackErrors atomic.Int64
	// roundMS is the time of the round whose model the next phase runs
	// under, so it lands on that phase's row (the baseline row has none).
	var roundMS int64
	for ph := 0; ph <= e.flRounds; ph++ {
		p := newPhase()
		p.duration = drive(w.phaseJobs(), e.concurrency, func(j job) {
			o := t.send(j)
			p.record(j, o)
			if fb, ok := feedbackFor(j, o.reply); ok && o.served() {
				if err := t.postJSON("/v1/feedback", fb, nil); err != nil && feedbackErrors.Add(1) == 1 {
					log.Printf("feedback error (first): %v", err)
				}
			}
		}, nil)
		requestErrors += p.failed()

		// Status reflects the model this phase ran under.
		st, err := t.flStatus()
		if err != nil {
			return nil, fmt.Errorf("fetching /v1/fl/status (is cacheserve running with -fl?): %w", err)
		}
		r := row{label: "baseline", version: "(frozen)", tau: st.Tau, p: p, roundMS: roundMS}
		if ph > 0 {
			r.label = fmt.Sprintf("round %d", ph)
			r.version = ""
			if st.Current != nil {
				r.version = st.Current.Version
			}
		}
		log.Printf("%s: hit %.1f%% F1 %.3f (P %.3f R %.3f) over %d probes in %v",
			r.label, 100*ratio(p.hits, p.served), p.confusion.F1(), p.confusion.Precision(), p.confusion.Recall(),
			p.served, p.duration.Round(time.Millisecond))

		// Trigger the next round (except after the final phase).
		if ph < e.flRounds {
			var rep flserve.RoundReport
			if err := rounds.postJSON("/v1/fl/round", nil, &rep); err != nil {
				return nil, fmt.Errorf("FL round %d: %w (%s)", ph+1, err, rep.Error)
			}
			roundMS = rep.TookMillis
			log.Printf("round %d: version %s tau=%.3f trained=%d/%d eligible=%d reembedded=%d entries in %dms",
				ph+1, rep.Version, rep.Tau, rep.Trained, rep.Cohort, rep.Eligible, rep.Reembedded, rep.TookMillis)
		}
		rows = append(rows, r)
	}

	fmt.Printf("\n=== online FL trajectory ===\n")
	fmt.Printf("%-10s %-18s %7s %8s %7s %7s %7s %9s\n",
		"phase", "model", "tau", "hit%", "P", "R", "F1", "round ms")
	for _, r := range rows {
		c := r.p.confusion
		fmt.Printf("%-10s %-18s %7.3f %8.1f %7.3f %7.3f %7.3f %9d\n",
			r.label, r.version, r.tau, 100*ratio(r.p.hits, r.p.served), c.Precision(), c.Recall(), c.F1(), r.roundMS)
	}
	base, last := rows[0].p, rows[len(rows)-1].p
	baseHit, lastHit := ratio(base.hits, base.served), ratio(last.hits, last.served)
	baseF1, lastF1 := base.confusion.F1(), last.confusion.F1()
	fmt.Printf("\nvs frozen baseline: hit ratio %.1f%% -> %.1f%% (%+.1f pts), F1 %.3f -> %.3f (%+.3f)\n",
		100*baseHit, 100*lastHit, 100*(lastHit-baseHit), baseF1, lastF1, lastF1-baseF1)
	if lastF1 > baseF1 && lastHit > baseHit {
		fmt.Println("improved over the frozen-model baseline ✓")
	} else {
		fmt.Println("WARNING: no improvement over the frozen-model baseline")
	}
	if st, err := t.flStatus(); err == nil {
		var lineage []string
		for i := len(st.Versions) - 1; i >= 0; i-- {
			lineage = append(lineage, st.Versions[i].Version)
		}
		fmt.Printf("model lineage    %s\n", strings.Join(lineage, " -> "))
		fmt.Printf("collector        %d tenants, %d pairs (%d+, %d-, %d retracted)\n",
			st.Collector.Tenants, st.Collector.Pairs, st.Collector.Positives, st.Collector.Negatives, st.Collector.Retracted)
		fmt.Printf("rollouts         %d swaps, %d entries re-embedded (%d at activation)\n",
			st.Rollouts.Swaps, st.Rollouts.EntriesReembedded, st.Rollouts.ActivationsMigrated)
	}
	return []gate{
		check("clean run", requestErrors == 0 && feedbackErrors.Load() == 0,
			"%d request errors, %d feedback errors across %d phases", requestErrors, feedbackErrors.Load(), len(rows)),
	}, nil
}
