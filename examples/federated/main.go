// Federated: the paper's privacy-preserving training loop, run ONLINE
// against a live serving process — the deployment shape of §III-A rather
// than an offline simulation.
//
// An in-process cacheserve (internal/stack, with -fl on) hosts a
// fleet of tenants. Simulated users query it over HTTP and file the two
// feedback signals of the online loop: missed_dup when a paraphrase of an
// earlier question wasn't served from cache, and false_hit when a wrong
// hit comes back. The FL coordinator turns that feedback into private
// per-tenant training shards, and each POST /v1/fl/round samples a cohort,
// fine-tunes locally, aggregates weights + τ with FedAvg, commits a new
// model version, and hot-rolls it into the running tenants (re-embedding
// their caches in the background). No raw query ever leaves its tenant;
// only weights and thresholds move.
//
// Run with: go run ./examples/federated
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/server"
	"repro/internal/stack"
)

const (
	users          = 12
	intentsPerUser = 6
	probesPerPhase = 8
	rounds         = 3
	dupFraction    = 0.5
)

func main() {
	// --- the serving process, with the online FL coordinator enabled ---
	// stack.Default() is what cacheserve ships; the example turns FL on
	// (rounds run only when it posts /v1/fl/round), federates the small
	// ALBERT-sized encoder so three rounds train in seconds, and lets a
	// tenant join a cohort on the 6 pairs its 8 probes per phase can yield.
	cfg := stack.Default()
	cfg.Addr = "127.0.0.1:0"
	cfg.FL = true
	cfg.Arch = embed.AlbertSim.Name
	cfg.FLMinPairs = 6
	st, err := stack.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	if err := st.Serve(); err != nil {
		log.Fatal(err)
	}
	svc := st.FL
	url := "http://" + st.Server.Addr()
	fmt.Printf("cacheserve with online FL listening on %s\n\n", st.Server.Addr())

	// --- simulated users: shared lexicon, private intents ---
	rng := rand.New(rand.NewSource(7))
	gen := dataset.NewGenerator(dataset.DefaultConfig(), rng)
	intents := make([][]dataset.Intent, users)
	warmed := make([][]string, users)
	id := 0
	for u := range intents {
		for i := 0; i < intentsPerUser; i++ {
			it := gen.NewIntent(id)
			id++
			q := gen.Realize(it)
			intents[u] = append(intents[u], it)
			warmed[u] = append(warmed[u], q)
			ask(url, u, q) // warm the tenant's cache
		}
	}

	fmt.Printf("%-10s %-18s %6s %6s %6s\n", "phase", "model", "tau", "hit%", "misses fed back")
	for phase := 0; phase <= rounds; phase++ {
		hits, asked, fedback := 0, 0, 0
		for u := range intents {
			for p := 0; p < probesPerPhase; p++ {
				var q string
				dup := rng.Float64() < dupFraction
				var dupOf string
				if dup {
					k := rng.Intn(len(intents[u]))
					q, dupOf = gen.Realize(intents[u][k]), warmed[u][k]
				} else {
					q = gen.Realize(gen.NewIntent(-1))
				}
				qr := ask(url, u, q)
				asked++
				if qr.Hit {
					hits++
				}
				switch {
				case dup && !qr.Hit:
					// The user points at the earlier question it duplicates.
					feedback(url, u, server.FeedbackMissedDup, q, dupOf)
					fedback++
				case !dup && qr.Hit:
					feedback(url, u, server.FeedbackFalseHit, q, qr.Matched)
					fedback++
				}
			}
		}
		label, version := "baseline", "(frozen)"
		if phase > 0 {
			label = fmt.Sprintf("round %d", phase)
			if rec, ok := svc.Models().Latest(); ok {
				version = rec.Version
			}
		}
		fmt.Printf("%-10s %-18s %6.2f %6.1f %6d\n",
			label, version, svc.Tau(), 100*float64(hits)/float64(asked), fedback)

		if phase < rounds {
			start := time.Now()
			rep, err := svc.RunRound()
			if err != nil {
				log.Fatalf("round: %v", err)
			}
			fmt.Printf("  -> FL round %d: cohort %d, version %s, tau %.2f, %d entries re-embedded (%v)\n",
				phase+1, rep.Cohort, rep.Version, rep.Tau, rep.Reembedded, time.Since(start).Round(time.Millisecond))
		}
	}

	fmt.Println("\nmodel lineage (GET /v1/model serves any of these):")
	for _, rec := range svc.Models().History(0) {
		fmt.Printf("  %s  round %d  tau=%.3f  cohort=%d\n", rec.Version, rec.Round, rec.Tau, rec.Cohort)
	}
	fmt.Println("no client query ever left its tenant; only weights and thresholds moved.")
}

func ask(url string, user int, q string) server.QueryResponse {
	body, _ := json.Marshal(server.QueryRequest{User: fmt.Sprintf("user-%d", user), Query: q})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		log.Fatal(err)
	}
	return qr
}

func feedback(url string, user int, kind, q, other string) {
	body, _ := json.Marshal(server.FeedbackRequest{
		User: fmt.Sprintf("user-%d", user), Kind: kind, Query: q, DuplicateOf: other,
	})
	resp, err := http.Post(url+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}
