package embed

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tokenizer"
	"repro/internal/vecmath"
)

// tinyArch keeps gradient-check tests fast and numerically tight.
var tinyArch = Arch{
	Name:      "mpnet-sim", // reuse a registered name so Save/Load works
	Mode:      tokenizer.Words,
	Vocab:     64,
	EmbDim:    8,
	OutDim:    12,
	Trainable: true,
}

func TestEncodeDeterministic(t *testing.T) {
	a := NewModel(MPNetSim, 42)
	b := NewModel(MPNetSim, 42)
	ea := a.Encode("draw a line plot in python")
	eb := b.Encode("draw a line plot in python")
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed + same text must produce identical embeddings")
		}
	}
}

// forwardDot is Model.Forward with the projection written as one
// vecmath.Dot per row of W, the scalar reference the shipped kernel
// (Matrix.MulVec through vecmath.ScanDot) must match bit for bit.
func forwardDot(m *Model, text string) []float32 {
	ids := m.Tok.TokenizeAppend(text, nil)
	pooled := make([]float32, m.Cfg.EmbDim)
	aw := m.Cfg.AnchorWeight
	if len(ids) > 0 {
		inv := (1 - aw) / float32(len(ids))
		for _, id := range ids {
			vecmath.Axpy(inv, m.E.Row(id), pooled)
		}
	}
	if aw > 0 {
		vecmath.Axpy(aw, m.E.Row(m.anchorRow()), pooled)
	}
	out := make([]float32, m.Cfg.OutDim)
	for i := range out {
		out[i] = tanh32(vecmath.Dot(m.W.Row(i), pooled) + m.B[i])
	}
	if vecmath.Normalize(out) == 0 {
		out[0] = 1
	}
	for k := 0; k < m.Cfg.ExtraCost; k++ {
		vecmath.Normalize(out)
	}
	return out
}

// TestEncodeMatchesPerRowDot pins that the projection kernel moves no
// embedding: every shipped architecture encodes each text to exactly the
// bits a per-row Dot projection gives, alone and in a batch.
func TestEncodeMatchesPerRowDot(t *testing.T) {
	texts := []string{
		"",
		"draw a line plot in python",
		"How can I increase the battery life of my smartphone?",
		"what is federated learning",
		"résumé naïve café — ünïcödé tokens",
		"rotate the api credentials for the staging cluster before friday and notify the on-call engineer",
	}
	for _, cfg := range []Arch{MPNetSim, AlbertSim, Llama2Sim} {
		m := NewModel(cfg, 7)
		batch := m.EncodeBatch(texts)
		for i, text := range texts {
			want := forwardDot(m, text)
			for name, got := range map[string][]float32{"Encode": m.Encode(text), "EncodeBatch": batch.Row(i)} {
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%s %s(%q)[%d] = %v, per-row Dot gives %v", cfg.Name, name, text, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func TestEncodeUnitNorm(t *testing.T) {
	for _, cfg := range []Arch{MPNetSim, AlbertSim, Llama2Sim} {
		m := NewModel(cfg, 1)
		e := m.Encode("what is federated learning")
		n := float64(vecmath.Norm(e))
		if math.Abs(n-1) > 1e-4 {
			t.Errorf("%s: embedding norm = %v, want 1", cfg.Name, n)
		}
		if len(e) != cfg.OutDim {
			t.Errorf("%s: dim = %d, want %d", cfg.Name, len(e), cfg.OutDim)
		}
	}
}

func TestEncodeEmptyText(t *testing.T) {
	m := NewModel(tinyArch, 1)
	e := m.Encode("")
	n := float64(vecmath.Norm(e))
	if math.Abs(n-1) > 1e-5 {
		t.Fatalf("empty-text embedding norm = %v, want 1", n)
	}
}

func TestEncodeBatchMatchesEncode(t *testing.T) {
	m := NewModel(AlbertSim, 3)
	texts := []string{
		"how do I sort a list in go",
		"what is the capital of france",
		"",
		"explain principal component analysis",
	}
	batch := m.EncodeBatch(texts)
	for i, txt := range texts {
		single := m.Encode(txt)
		row := batch.Row(i)
		for j := range single {
			if single[j] != row[j] {
				t.Fatalf("EncodeBatch row %d differs from Encode", i)
			}
		}
	}
}

func TestSimilarTextCloserThanDifferent(t *testing.T) {
	// Even untrained, shared surface tokens must push paraphrases closer
	// than unrelated text — the starting point the training improves on.
	m := NewModel(MPNetSim, 7)
	a := m.Encode("increase the battery life of my phone")
	b := m.Encode("increase the battery duration of my phone")
	c := m.Encode("recipe for chocolate cake frosting")
	simAB := vecmath.Dot(a, b)
	simAC := vecmath.Dot(a, c)
	if simAB <= simAC {
		t.Fatalf("paraphrase similarity %v not above unrelated %v", simAB, simAC)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	m := NewModel(tinyArch, 5)
	w := m.Weights()
	m2 := NewModel(tinyArch, 99)
	m2.SetWeights(w)
	ea := m.Encode("some query text")
	eb := m2.Encode("some query text")
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("SetWeights(Weights()) did not transfer the model")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(MPNetSim, 11)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ea := m.Encode("persistent model")
	eb := m2.Encode("persistent model")
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("loaded model produces different embeddings")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("Load accepted garbage input")
	}
}

func TestArchByName(t *testing.T) {
	for _, name := range []string{"mpnet-sim", "albert-sim", "llama2-sim"} {
		cfg, err := ArchByName(name)
		if err != nil {
			t.Fatalf("ArchByName(%q): %v", name, err)
		}
		if cfg.Name != name {
			t.Fatalf("ArchByName(%q).Name = %q", name, cfg.Name)
		}
	}
	if _, err := ArchByName("bert-huge"); err == nil {
		t.Fatal("ArchByName accepted unknown architecture")
	}
}

// TestBackwardGradientCheck verifies the analytic backward pass against
// central finite differences for L = v⋅out with random fixed v, with the
// anchor blend both disabled and enabled.
func TestBackwardGradientCheck(t *testing.T) {
	for _, aw := range []float32{0, 0.5} {
		cfg := tinyArch
		cfg.AnchorWeight = aw
		t.Run(fmt.Sprintf("anchor=%v", aw), func(t *testing.T) {
			gradientCheck(t, cfg)
		})
	}
}

func gradientCheck(t *testing.T, arch Arch) {
	m := NewModel(arch, 21)
	rng := rand.New(rand.NewSource(33))
	text := "alpha beta gamma delta"
	v := make([]float32, m.Cfg.OutDim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		acts := m.NewActivations()
		out := m.Forward(text, acts)
		return float64(vecmath.Dot(v, out))
	}

	acts := m.NewActivations()
	m.Forward(text, acts)
	g := m.NewGrads()
	m.Backward(acts, v, g)

	const eps = 1e-3
	checkParam := func(name string, data []float32, grad []float32, idx int) {
		orig := data[idx]
		data[idx] = orig + eps
		lp := loss()
		data[idx] = orig - eps
		lm := loss()
		data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(grad[idx])
		if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
			t.Errorf("%s[%d]: analytic %v vs numeric %v", name, idx, analytic, numeric)
		}
	}
	// Spot-check W and B at random indices.
	for k := 0; k < 20; k++ {
		checkParam("W", m.W.Data, g.W.Data, rng.Intn(len(m.W.Data)))
		checkParam("B", m.B, g.B, rng.Intn(len(m.B)))
	}
	// Check every touched embedding row fully.
	for _, id := range g.TouchedRows() {
		for j := 0; j < m.Cfg.EmbDim; j++ {
			flat := id*m.Cfg.EmbDim + j
			checkParam("E", m.E.Data, g.E.Data, flat)
		}
	}
	if len(g.TouchedRows()) == 0 {
		t.Fatal("no embedding rows touched; tokenization broken?")
	}
}

func TestGradsZero(t *testing.T) {
	m := NewModel(tinyArch, 2)
	acts := m.NewActivations()
	m.Forward("some words here", acts)
	g := m.NewGrads()
	dOut := make([]float32, m.Cfg.OutDim)
	dOut[0] = 1
	m.Backward(acts, dOut, g)
	if len(g.TouchedRows()) == 0 {
		t.Fatal("Backward touched no rows")
	}
	g.Zero()
	if len(g.TouchedRows()) != 0 {
		t.Fatal("Zero did not clear touched rows")
	}
	for _, x := range g.W.Data {
		if x != 0 {
			t.Fatal("Zero did not clear W gradient")
		}
	}
	for _, x := range g.E.Data {
		if x != 0 {
			t.Fatal("Zero did not clear E gradient")
		}
	}
}

func TestProjectedEncoder(t *testing.T) {
	m := NewModel(tinyArch, 8)
	rng := rand.New(rand.NewSource(4))
	p := vecmath.NewMatrix(4, m.Dim())
	p.RandomizeNormal(rng, 1)
	pe := WithProjection(m, p)
	if pe.Dim() != 4 {
		t.Fatalf("Projected dim = %d, want 4", pe.Dim())
	}
	e := pe.Encode("compressed embedding test")
	if len(e) != 4 {
		t.Fatalf("Projected embedding len = %d, want 4", len(e))
	}
	if n := float64(vecmath.Norm(e)); math.Abs(n-1) > 1e-5 {
		t.Fatalf("Projected embedding norm = %v, want 1", n)
	}
}

func TestProjectedPanicsOnShapeMismatch(t *testing.T) {
	m := NewModel(tinyArch, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("WithProjection accepted mismatched shape")
		}
	}()
	WithProjection(m, vecmath.NewMatrix(4, m.Dim()+1))
}

func BenchmarkEncodeMPNetSim(b *testing.B) {
	m := NewModel(MPNetSim, 1)
	q := "How can I increase the battery life of my smartphone"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Encode(q)
	}
}

// BenchmarkEncodeBatch32MPNetSim times one EncodeBatch call over 32
// texts, as the offline embedders (experiments, examples) issue them.
func BenchmarkEncodeBatch32MPNetSim(b *testing.B) {
	m := NewModel(MPNetSim, 1)
	texts := make([]string, 32)
	for i := range texts {
		texts[i] = fmt.Sprintf("query %d about rotating api credentials", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EncodeBatch(texts)
	}
}

func BenchmarkEncodeAlbertSim(b *testing.B) {
	m := NewModel(AlbertSim, 1)
	q := "How can I increase the battery life of my smartphone"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Encode(q)
	}
}

func BenchmarkEncodeLlama2Sim(b *testing.B) {
	m := NewModel(Llama2Sim, 1)
	q := "How can I increase the battery life of my smartphone"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Encode(q)
	}
}
