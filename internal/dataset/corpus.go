package dataset

import (
	"math/rand"
	"strings"
)

// CorpusConfig controls corpus generation. The defaults (DefaultConfig)
// are calibrated so that an untrained encoder at GPTCache's fixed 0.7
// threshold lands in the high-recall/low-precision regime the paper
// measures for the baseline, leaving headroom for fine-tuning to improve.
type CorpusConfig struct {
	// Concepts is the lexicon size (synonym groups).
	Concepts int
	// Intents is the number of distinct semantic intents generated.
	Intents int
	// MinConcepts/MaxConcepts bound the content words per intent.
	MinConcepts, MaxConcepts int
	// CanonicalBias is the probability a realisation keeps a concept's
	// canonical surface form; otherwise a random synonym is used. Lower
	// values make duplicate pairs lexically harder.
	CanonicalBias float64
	// HardNegativeRate is the fraction of non-duplicate pairs forced to
	// share concepts with their counterpart (confusable negatives).
	HardNegativeRate float64
	// SharedConcepts is how many concepts a hard negative shares.
	SharedConcepts int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the calibrated corpus configuration used by the
// experiments.
func DefaultConfig() CorpusConfig {
	return CorpusConfig{
		Concepts:         1200,
		Intents:          3000,
		MinConcepts:      4,
		MaxConcepts:      7,
		CanonicalBias:    0.65,
		HardNegativeRate: 0.35,
		SharedConcepts:   2,
		Seed:             1,
	}
}

// Intent is one semantic equivalence class: all realisations of an intent
// are duplicates of each other. The filler scaffolding belongs to the
// intent, not the realisation: paraphrases of one query share sentence
// structure and vary in word choice, so realisations differ only in the
// synonym picked per concept.
type Intent struct {
	ID       int
	Prefix   int      // index into questionPrefixes
	Concepts []int    // lexicon concept IDs, in surface order
	Fillers  []string // filler before concept i ("" = none); Fillers[0] unused
}

// Pair is a labelled query pair: Dup reports whether A and B are
// semantically equivalent (realisations of the same intent).
type Pair struct {
	A, B string
	Dup  bool
}

// Corpus is a generated duplicate-query benchmark with train/val/test
// splits of labelled pairs, mirroring the GPTCache dataset partitioning of
// §IV-A.1. Intents are disjoint across splits so evaluation measures
// generalisation to unseen intents, not memorisation.
type Corpus struct {
	Cfg     CorpusConfig
	Lexicon *Lexicon
	Intents []Intent

	Train, Val, Test []Pair
}

// Generator produces realisations of intents. It is the shared engine
// beneath the pair corpus, the cache workloads, the contextual dataset and
// the user-study streams.
type Generator struct {
	cfg CorpusConfig
	lx  *Lexicon
	rng *rand.Rand
}

// NewGenerator builds a generator with its own RNG stream.
func NewGenerator(cfg CorpusConfig, rng *rand.Rand) *Generator {
	return &Generator{cfg: cfg, lx: NewLexicon(cfg.Concepts, rng), rng: rng}
}

// NewIntent samples a fresh intent.
func (g *Generator) NewIntent(id int) Intent {
	n := g.cfg.MinConcepts + g.rng.Intn(g.cfg.MaxConcepts-g.cfg.MinConcepts+1)
	concepts := make([]int, 0, n)
	used := make(map[int]bool, n)
	for len(concepts) < n {
		c := g.rng.Intn(g.lx.Concepts())
		if !used[c] {
			used[c] = true
			concepts = append(concepts, c)
		}
	}
	fillers := make([]string, n)
	for i := 1; i < n; i++ {
		if g.rng.Float64() < 0.5 {
			fillers[i] = fillerWords[g.rng.Intn(len(fillerWords))]
		}
	}
	return Intent{
		ID:       id,
		Prefix:   g.rng.Intn(len(questionPrefixes)),
		Concepts: concepts,
		Fillers:  fillers,
	}
}

// NewIntentSharing samples an intent that shares `shared` concepts with
// base — a hard negative: lexically overlapping but semantically distinct.
func (g *Generator) NewIntentSharing(id int, base Intent, shared int) Intent {
	it := g.NewIntent(id)
	if shared > len(base.Concepts) {
		shared = len(base.Concepts)
	}
	if shared > len(it.Concepts) {
		shared = len(it.Concepts)
	}
	perm := g.rng.Perm(len(base.Concepts))
	for i := 0; i < shared; i++ {
		it.Concepts[i] = base.Concepts[perm[i]]
	}
	// Sharing the question prefix makes the negative harder still.
	it.Prefix = base.Prefix
	return it
}

// Realize renders one surface form of intent: prefix words, then each
// concept's chosen synonym joined by occasional filler words.
func (g *Generator) Realize(intent Intent) string {
	var words []string
	words = append(words, questionPrefixes[intent.Prefix]...)
	for i, c := range intent.Concepts {
		if i > 0 && i < len(intent.Fillers) && intent.Fillers[i] != "" {
			words = append(words, intent.Fillers[i])
		}
		pick := 0
		if g.rng.Float64() >= g.cfg.CanonicalBias {
			syn := g.lx.Synonyms(c)
			pick = 1 + g.rng.Intn(len(syn)-1)
		}
		words = append(words, g.lx.Word(c, pick))
	}
	return strings.Join(words, " ")
}

// GenerateCorpus builds the full labelled-pair corpus with a 60/20/20
// train/val/test split over disjoint intents. Each split holds one
// duplicate pair and one non-duplicate pair per intent, so splits are
// class-balanced as in §IV-F's threshold sweeps.
func GenerateCorpus(cfg CorpusConfig) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := NewGenerator(cfg, rng)
	c := &Corpus{Cfg: cfg, Lexicon: gen.lx}
	c.Intents = make([]Intent, cfg.Intents)
	for i := range c.Intents {
		c.Intents[i] = gen.NewIntent(i)
	}
	nTrain := cfg.Intents * 6 / 10
	nVal := cfg.Intents * 2 / 10
	c.Train = gen.pairsFor(c.Intents[:nTrain])
	c.Val = gen.pairsFor(c.Intents[nTrain : nTrain+nVal])
	c.Test = gen.pairsFor(c.Intents[nTrain+nVal:])
	return c
}

// pairsFor emits, per intent, one positive pair (two realisations) and one
// negative pair (against either a hard-negative intent or another intent in
// the split).
func (g *Generator) pairsFor(intents []Intent) []Pair {
	pairs := make([]Pair, 0, 2*len(intents))
	for i, it := range intents {
		pairs = append(pairs, Pair{A: g.Realize(it), B: g.Realize(it), Dup: true})
		var other Intent
		if g.rng.Float64() < g.cfg.HardNegativeRate {
			other = g.NewIntentSharing(-1, it, g.cfg.SharedConcepts)
		} else if len(intents) > 1 {
			j := g.rng.Intn(len(intents) - 1)
			if j >= i {
				j++
			}
			other = intents[j]
		} else {
			other = g.NewIntent(-1)
		}
		pairs = append(pairs, Pair{A: g.Realize(it), B: g.Realize(other), Dup: false})
	}
	g.rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	return pairs
}

// SplitPairs partitions pairs into n non-overlapping client shards of
// near-equal size, mirroring the random non-overlapping distribution of
// training data across FL clients in §IV-A.1.
func SplitPairs(pairs []Pair, n int, rng *rand.Rand) [][]Pair {
	if n <= 0 {
		panic("dataset: SplitPairs n must be positive")
	}
	shuffled := make([]Pair, len(pairs))
	copy(shuffled, pairs)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	out := make([][]Pair, n)
	for i, p := range shuffled {
		out[i%n] = append(out[i%n], p)
	}
	return out
}
