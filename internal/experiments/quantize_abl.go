package experiments

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// quantizedEncoder wraps an encoder so its output reflects what the cache
// would effectively compare after int8 storage: quantise with the codes
// the serving IVF lists store (vecmath.Quantize), dequantise,
// re-normalise. Used to measure the matching-quality cost of int8
// storage.
type quantizedEncoder struct {
	base embed.Encoder
}

func (q quantizedEncoder) Encode(text string) []float32 {
	x := q.base.Encode(text)
	code := make([]int8, len(x))
	scale, _ := vecmath.Quantize(x, code)
	v := make([]float32, len(code))
	for i, c := range code {
		v[i] = float32(c) * scale
	}
	if vecmath.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

func (q quantizedEncoder) Dim() int     { return q.base.Dim() }
func (q quantizedEncoder) Name() string { return q.base.Name() + "+int8" }

// AblationQuantize extends the Figure 10 storage study with int8 scalar
// quantization: raw float32, PCA-64, int8, and PCA-64+int8, reporting
// per-entry embedding bytes and the matching quality at each
// representation's own optimal threshold.
func AblationQuantize(lab *Lab) *AblationResult {
	tm := lab.Trained(embed.MPNetSim)
	corpus := lab.Corpus()
	res := &AblationResult{Title: "embedding storage format (bytes per cached embedding)"}

	pcaEnc := lab.CompressedEncoder(embed.MPNetSim)
	configs := []struct {
		name  string
		enc   embed.Encoder
		bytes int
	}{
		{"float32 raw", tm.Model, tm.Model.Dim() * 4},
		{"float32 + pca64", pcaEnc, pcaEnc.Dim() * 4},
		{"int8 raw", quantizedEncoder{tm.Model}, tm.Model.Dim() + 4},
		{"int8 + pca64", quantizedEncoder{pcaEnc}, pcaEnc.Dim() + 4},
	}
	for _, cfg := range configs {
		opt := train.Sweep(cfg.enc, corpus.Val, 0.01, 1).Optimal
		res.Rows = append(res.Rows, AblationRow{
			Config: cfg.name,
			Scores: opt.Scores,
			Note:   fmt.Sprintf("%d B/entry, tau*=%.2f", cfg.bytes, opt.Tau),
		})
	}
	return res
}
