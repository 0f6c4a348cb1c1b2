package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llmsim"
)

// SavingsResult tests the paper's concluding claim: "MeanCache offers a
// solution to reduce up to one-third of LLM query inference costs for
// semantically similar queries on the user side". Each study participant's
// query stream (the Figure 4 data, ≈31% duplicates) is replayed through a
// private per-user MeanCache; the saving is the fraction of queries that
// never reach the LLM service.
type SavingsResult struct {
	PerUser  []UserSavings
	Total    int     // queries across all users
	Served   int     // served from local caches
	Saving   float64 // Served / Total
	DupRatio float64 // ground-truth duplicate fraction (the ceiling)
}

// UserSavings is one participant's outcome.
type UserSavings struct {
	User       int
	Queries    int
	Duplicates int
	CacheHits  int
	FalseHits  int // hits whose matched intent differs from the query's
}

// Savings replays a bounded prefix of every participant stream (full
// streams at paper scale, capped in quick mode) through per-user clients
// using the FL-trained encoder and τ_global.
func Savings(lab *Lab) *SavingsResult {
	tm := lab.Trained(embed.MPNetSim)
	streams := dataset.GenerateUserStudy(lab.Cfg.Corpus)
	// Cap per-user replay length so the experiment stays proportionate to
	// the configured workload size (full study is 27K queries).
	maxPerUser := lab.Cfg.NCached * 2

	res := &SavingsResult{}
	dupTotal := 0
	for u, stream := range streams {
		n := min(len(stream.Queries), maxPerUser)
		client := core.New(core.Options{
			Encoder:      tm.Model,
			LLM:          llmsim.New(llmsim.DefaultConfig()),
			Tau:          float32(tm.Tau),
			IndexFactory: exactIndex,
		})
		us := UserSavings{User: u + 1, Queries: n}
		// Track the intent of each cached entry to grade hits.
		intentOf := make(map[int]int) // cache entry ID -> intent ID
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			q := stream.Queries[i]
			intent := stream.IntentIDs[i]
			if seen[intent] {
				us.Duplicates++
			}
			seen[intent] = true
			r, err := client.Query(q)
			if err != nil {
				panic(fmt.Sprintf("experiments: savings replay: %v", err))
			}
			if r.Hit {
				us.CacheHits++
				if intentOf[r.Entry.ID] != intent {
					us.FalseHits++
				}
			} else if r.Entry != nil {
				intentOf[r.Entry.ID] = intent
			}
		}
		res.PerUser = append(res.PerUser, us)
		res.Total += us.Queries
		res.Served += us.CacheHits
		dupTotal += us.Duplicates
	}
	if res.Total > 0 {
		res.Saving = float64(res.Served) / float64(res.Total)
		res.DupRatio = float64(dupTotal) / float64(res.Total)
	}
	return res
}

// String renders the per-user and aggregate savings.
func (r *SavingsResult) String() string {
	var b strings.Builder
	b.WriteString("LLM inference savings (paper's concluding claim: up to ~1/3 of queries)\n\n")
	fmt.Fprintf(&b, "  %-6s %8s %11s %10s %10s\n", "user", "queries", "duplicates", "cache-hit", "false-hit")
	for _, u := range r.PerUser {
		fmt.Fprintf(&b, "  %-6d %8d %11d %10d %10d\n",
			u.User, u.Queries, u.Duplicates, u.CacheHits, u.FalseHits)
	}
	fmt.Fprintf(&b, "\n  %d of %d queries (%.1f%%) served from local caches; duplicate ceiling %.1f%%\n",
		r.Served, r.Total, 100*r.Saving, 100*r.DupRatio)
	return b.String()
}
