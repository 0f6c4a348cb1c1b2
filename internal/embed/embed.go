// Package embed implements the sentence-embedding encoders that MeanCache
// uses for semantic matching.
//
// The paper fine-tunes pretrained transformers (MPNet, ALBERT) with SBERT
// and compares them against frozen Llama 2 embeddings. Go has no such
// model ecosystem, so this package substitutes compact trainable encoders
// with the same *interface contract* — text in, L2-normalised dense vector
// out — and the same experimental dynamics:
//
//   - MPNet-sim and Albert-sim are trainable: an embedding table over hashed
//     token features, mean pooling, a dense projection with tanh, and L2
//     normalisation. Full analytic backprop is implemented in model.go, so
//     the contrastive/MNRL fine-tuning of §III-A.1 and the FL training
//     curves of Figures 11–12 are real optimisation, not simulation.
//   - Llama2-sim is frozen (its Trainable() is false): a much larger
//     char-trigram encoder whose embeddings capture surface form rather
//     than meaning, reproducing the qualitative deficit measured in §IV-G
//     (slow to encode, large to store, poor at semantic matching).
//
// All encoders are safe for concurrent Encode calls once training stops.
package embed

import (
	"fmt"

	"repro/internal/tokenizer"
)

// Encoder converts text into a dense L2-normalised embedding vector.
// Implementations must be deterministic: equal text yields equal vectors.
type Encoder interface {
	// Encode returns the embedding of text. The returned slice is owned by
	// the caller. Embeddings are L2-normalised, so the dot product of two
	// embeddings equals their cosine similarity.
	Encode(text string) []float32
	// Dim reports the embedding dimensionality.
	Dim() int
	// Name identifies the encoder architecture (e.g. "mpnet-sim").
	Name() string
}

// IntoEncoder is the optional pooled-buffer encode surface: the
// embedding is appended into dst[:0] (grown if needed) and returned, so
// buffer-recycling callers encode without per-call allocation. Model and
// Swappable implement it.
type IntoEncoder interface {
	EncodeInto(text string, dst []float32) []float32
}

// EncodeInto encodes through enc's pooled-buffer path when it has one,
// copying through dst otherwise — the one fallback shared by every
// buffer-recycling caller.
func EncodeInto(enc Encoder, text string, dst []float32) []float32 {
	if ie, ok := enc.(IntoEncoder); ok {
		return ie.EncodeInto(text, dst)
	}
	return append(dst[:0], enc.Encode(text)...)
}

// Arch describes a registered encoder architecture.
type Arch struct {
	// Name is the registry key, e.g. "mpnet-sim".
	Name string
	// Mode selects the token features (see tokenizer).
	Mode tokenizer.Mode
	// Vocab is the number of hash buckets in the embedding table.
	Vocab int
	// EmbDim is the width of the embedding table (factorised width for
	// Albert-sim, mirroring real ALBERT's factorised embedding).
	EmbDim int
	// OutDim is the final embedding dimensionality.
	OutDim int
	// Trainable reports whether fine-tuning is supported. Llama2-sim is
	// frozen, as GPTCache uses Llama purely as a feature extractor.
	Trainable bool
	// ExtraCost adds synthetic per-encode compute proportional to OutDim,
	// modelling the deep transformer stack a real LLM would run. Zero for
	// the small models.
	ExtraCost int
	// AnchorWeight blends a shared trainable anchor row into the pooled
	// representation: pooled = aw·anchor + (1−aw)·mean(tokens). This
	// reproduces the anisotropy of real transformer sentence embeddings,
	// whose pairwise cosines concentrate well above zero — the regime in
	// which the paper's thresholds (0.7–0.85) operate.
	AnchorWeight float32
}

// The three architectures evaluated in the paper (§IV-A.1). Dimensions
// follow the paper where it matters to the experiments: both small models
// emit 768-d embeddings, Llama2-sim emits 4096-d.
var (
	// MPNetSim mirrors MPNet: the strongest small encoder, with bigram
	// features for word-order sensitivity.
	MPNetSim = Arch{
		Name:      "mpnet-sim",
		Mode:      tokenizer.WordsAndBigrams,
		Vocab:     16384,
		EmbDim:    192,
		OutDim:    768,
		Trainable: true,

		AnchorWeight: 0.1,
	}
	// AlbertSim mirrors ALBERT: lighter, word features only, factorised
	// 128-wide embedding table projected to 768.
	AlbertSim = Arch{
		Name:      "albert-sim",
		Mode:      tokenizer.Words,
		Vocab:     16384,
		EmbDim:    128,
		OutDim:    768,
		Trainable: true,

		AnchorWeight: 0.1,
	}
	// Llama2Sim mirrors frozen Llama 2 embeddings: 4096-d, char-trigram
	// surface features, frozen, and deliberately expensive to run.
	Llama2Sim = Arch{
		Name:      "llama2-sim",
		Mode:      tokenizer.CharTrigrams,
		Vocab:     2048,
		EmbDim:    256,
		OutDim:    4096,
		Trainable: false,
		ExtraCost: 24,

		AnchorWeight: 0.55,
	}
)

// ArchByName resolves a registered architecture by name.
func ArchByName(name string) (Arch, error) {
	switch name {
	case MPNetSim.Name:
		return MPNetSim, nil
	case AlbertSim.Name:
		return AlbertSim, nil
	case Llama2Sim.Name:
		return Llama2Sim, nil
	}
	return Arch{}, fmt.Errorf("embed: unknown architecture %q", name)
}
