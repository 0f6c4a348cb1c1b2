package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
)

func userName(u int) string { return fmt.Sprintf("user-%04d", u) }

// buildJobs derives every user's workload: cached warmup queries and
// one probe list per requested phase size (probes per user). Per-user
// seeds give each user distinct intents, and a user's probes are drawn
// in one pass and dealt to the phases in order, so every phase sees the
// same per-user duplicate mix. The shuffles interleave users so
// concurrent traffic mixes tenants.
func buildJobs(seed int64, users, cached int, dup float64, phaseProbes ...int) (warmup []job, phases [][]job) {
	total := 0
	for _, n := range phaseProbes {
		total += n
	}
	phases = make([][]job, len(phaseProbes))
	for u := 0; u < users; u++ {
		cfg := dataset.DefaultConfig()
		cfg.Seed = seed + int64(u)*7919
		w := dataset.GenerateCacheWorkload(cfg, cached, total, dup)
		for _, q := range w.Cached {
			warmup = append(warmup, job{user: userName(u), text: q})
		}
		ph, end := 0, phaseProbes[0]
		for i, p := range w.Probes {
			for i >= end {
				ph++
				end += phaseProbes[ph]
			}
			phases[ph] = append(phases[ph], job{user: userName(u), text: p.Text, dup: p.DupOf >= 0})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	shuffle := func(jobs []job) {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	}
	shuffle(warmup)
	for _, jobs := range phases {
		shuffle(jobs)
	}
	return warmup, phases
}
