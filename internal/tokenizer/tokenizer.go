// Package tokenizer converts raw query text into hashed token IDs for the
// embedding encoders in internal/embed.
//
// The paper's encoders (MPNet, ALBERT, Llama 2) each ship their own subword
// vocabulary. This reproduction replaces them with feature hashing: tokens
// are normalised, optionally expanded into bigrams or character trigrams,
// and hashed into a fixed number of vocabulary buckets with FNV-1a. Feature
// hashing keeps the encoders vocabulary-free (any input text maps to valid
// rows of the embedding table) while preserving the property the experiments
// rely on: identical surface tokens always collide, so paraphrases sharing
// words start out similar and training pulls synonym buckets together.
package tokenizer

import (
	"strings"
	"unicode"
)

// Mode selects the token features a Tokenizer emits. The three modes mirror
// the lexical granularity of the paper's three models.
type Mode int

const (
	// Words emits one feature per whitespace-delimited normalised word.
	// Used by Albert-sim.
	Words Mode = iota
	// WordsAndBigrams emits word features plus adjacent-word bigram
	// features, giving the encoder limited word-order sensitivity.
	// Used by MPNet-sim.
	WordsAndBigrams
	// CharTrigrams emits overlapping character 3-grams of each word. Used
	// by Llama2-sim, whose frozen embeddings capture surface form rather
	// than meaning — the deficiency §IV-G measures.
	CharTrigrams
)

func (m Mode) String() string {
	switch m {
	case Words:
		return "words"
	case WordsAndBigrams:
		return "words+bigrams"
	case CharTrigrams:
		return "char-trigrams"
	default:
		return "unknown"
	}
}

// Tokenizer hashes normalised text features into [0, Vocab) bucket IDs.
// The zero value is not usable; construct with New.
type Tokenizer struct {
	mode  Mode
	vocab int
}

// New returns a Tokenizer emitting features per mode, hashed into vocab
// buckets. vocab must be positive.
func New(mode Mode, vocab int) *Tokenizer {
	if vocab <= 0 {
		panic("tokenizer: vocab must be positive")
	}
	return &Tokenizer{mode: mode, vocab: vocab}
}

// Mode reports the feature mode.
func (t *Tokenizer) Mode() Mode { return t.mode }

// Tokenize returns the hashed token IDs for text, in emission order. The
// result is deterministic: equal text always yields equal IDs. Empty or
// all-punctuation text yields an empty slice.
func (t *Tokenizer) Tokenize(text string) []int {
	return t.TokenizeAppend(text, nil)
}

// TokenizeAppend is Tokenize appending into ids — the buffer-reuse form
// the pooled encode path uses: with an ids[:0] of sufficient capacity no
// ID slice is allocated. Emission order and hashes are identical to
// Tokenize.
func (t *Tokenizer) TokenizeAppend(text string, ids []int) []int {
	words := Normalize(text)
	if len(words) == 0 {
		return ids
	}
	switch t.mode {
	case Words:
		for _, w := range words {
			ids = append(ids, t.bucket(w))
		}
	case WordsAndBigrams:
		for _, w := range words {
			ids = append(ids, t.bucket(w))
		}
		for i := 0; i+1 < len(words); i++ {
			ids = append(ids, t.bucket2(words[i], words[i+1]))
		}
	case CharTrigrams:
		for _, w := range words {
			padded := "^" + w + "$"
			if len(padded) < 3 {
				ids = append(ids, t.bucket(padded))
				continue
			}
			for i := 0; i+3 <= len(padded); i++ {
				ids = append(ids, t.bucket(padded[i:i+3]))
			}
		}
	}
	return ids
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// bucket hashes s with FNV-1a into [0, vocab).
func (t *Tokenizer) bucket(s string) int {
	return int(fnvString(fnvOffset64, s) % uint64(t.vocab))
}

// bucket2 hashes the bigram a+"\x00"+b without materialising the joined
// string — byte-identical to bucket(a+"\x00"+b).
func (t *Tokenizer) bucket2(a, b string) int {
	h := fnvString(fnvOffset64, a)
	h ^= 0 // the \x00 separator byte
	h *= fnvPrime64
	return int(fnvString(h, b) % uint64(t.vocab))
}

// Normalize lower-cases text, strips punctuation, and splits it into words.
// It is shared by all modes so that the same query always produces the same
// word stream regardless of encoder.
func Normalize(text string) []string {
	var b strings.Builder
	b.Grow(len(text))
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'': // drop apostrophes entirely: don't -> dont
		default:
			b.WriteByte(' ')
		}
	}
	return strings.Fields(b.String())
}
