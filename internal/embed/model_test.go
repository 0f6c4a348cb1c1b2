package embed

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
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

// TestFromWeightsAdoptsWeights: a model built from a flat weight vector
// holds it in place, not a copy, and encodes as the model the vector was
// taken from; a vector of the wrong length is refused.
func TestFromWeightsAdoptsWeights(t *testing.T) {
	m := NewModel(tinyArch, 5)
	w := m.Weights()
	m2, err := FromWeights(tinyArch, w)
	if err != nil {
		t.Fatal(err)
	}
	if &m2.E.Data[0] != &w[0] || &m2.B[len(m2.B)-1] != &w[len(w)-1] {
		t.Fatal("FromWeights copied the weights instead of adopting them")
	}
	ea, eb := m.Encode("some query text"), m2.Encode("some query text")
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("FromWeights(Weights()) did not transfer the model")
		}
	}
	if _, err := FromWeights(tinyArch, w[1:]); err == nil {
		t.Fatal("FromWeights accepted a vector one weight short")
	}
}

// TestSaveLoadRoundTrip: a saved and reloaded model holds E, W and B
// bit for bit and encodes bit-identically, loaded on the heap or pinned,
// and the file is the three weight blocks behind a short header: 4 bytes
// per weight plus 12 per block.
func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(MPNetSim, 11)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if want := 2 + len(MPNetSim.Name) + 4*m.WeightCount() + 3*12; buf.Len() != want {
		t.Fatalf("saved model is %d bytes, want %d", buf.Len(), want)
	}
	m2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameModel(t, m2, m)
	samePinnedLoad(t, buf.Bytes(), m)
}

// samePinnedLoad fails t unless LoadPinned reads raw to want's weights
// and counts them as pinned until its release.
func samePinnedLoad(t *testing.T, raw []byte, want *Model) {
	t.Helper()
	before := PinnedBytes()
	p, release, err := LoadPinned(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadPinned: %v", err)
	}
	sameModel(t, p, want)
	if got, weights := PinnedBytes()-before, int64(4*want.WeightCount()); got != weights && got != 0 {
		t.Errorf("LoadPinned pinned %d bytes, want the %d bytes of weights", got, weights)
	}
	release()
	if got := PinnedBytes(); got != before {
		t.Errorf("PinnedBytes = %d after release, want %d", got, before)
	}
}

// sameModel fails t unless got holds want's architecture and weights,
// bit for bit, and encodes text bit-identically.
func sameModel(t *testing.T, got, want *Model) {
	t.Helper()
	if got.Cfg != want.Cfg {
		t.Fatalf("loaded architecture %+v, want %+v", got.Cfg, want.Cfg)
	}
	for _, p := range []struct {
		name      string
		got, want []float32
	}{{"E", got.E.Data, want.E.Data}, {"W", got.W.Data, want.W.Data}, {"B", got.B, want.B}} {
		if len(p.got) != len(p.want) {
			t.Fatalf("%s holds %d weights, want %d", p.name, len(p.got), len(p.want))
		}
		for i := range p.want {
			if math.Float32bits(p.got[i]) != math.Float32bits(p.want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", p.name, i, p.got[i], p.want[i])
			}
		}
	}
	ea, eb := got.Encode("persistent model"), want.Encode("persistent model")
	for i := range eb {
		if math.Float32bits(ea[i]) != math.Float32bits(eb[i]) {
			t.Fatal("loaded model produces different embeddings")
		}
	}
}

// TestLoadLegacyGob: a model saved as one gob stream, the format every
// release before the block codec wrote, still loads to the same weights.
func TestLoadLegacyGob(t *testing.T) {
	m := NewModel(MPNetSim, 12)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(modelWire{ArchName: m.Cfg.Name, E: m.E.Data, W: m.W.Data, B: m.B}); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load of a legacy gob model: %v", err)
	}
	sameModel(t, m2, m)
	samePinnedLoad(t, buf.Bytes(), m)
}

// TestLoadRejectsCorruptModel: a flipped byte anywhere, a truncated
// file, bytes after the last block and a block whose declared length
// does not fit the named architecture are each refused with an error. A
// wrong declared length is refused before the block is allocated.
func TestLoadRejectsCorruptModel(t *testing.T) {
	m := NewModel(MPNetSim, 13)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	eLen := 2 + len(MPNetSim.Name) // offset of E's declared length
	nE := len(m.E.Data)
	pinnedBefore := PinnedBytes()
	load := func(name string, raw []byte) {
		t.Helper()
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: Load accepted a corrupt model", name)
		}
		if _, _, err := LoadPinned(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: LoadPinned accepted a corrupt model", name)
		}
		if got := PinnedBytes(); got != pinnedBefore {
			t.Errorf("%s: a refused LoadPinned left PinnedBytes at %d, want %d", name, got, pinnedBefore)
		}
	}
	for _, off := range []int{3, eLen + 3, eLen + 8 + 4*nE/2, eLen + 8 + 4*nE + 1, len(good) - 4*len(m.B) - 6, len(good) - 1} {
		bad := bytes.Clone(good)
		bad[off] ^= 0x10
		load(fmt.Sprintf("byte %d flipped", off), bad)
	}
	for _, n := range []int{1, eLen, eLen + 8 + 4*nE/2, eLen + 8 + 4*nE + 2, len(good) - 1} {
		load(fmt.Sprintf("truncated to %d bytes", n), good[:n])
	}
	load("a trailing byte", append(bytes.Clone(good), 0))
	load("an unregistered architecture", append([]byte{modelFormat, 4}, "bert"...))

	// A tinyArch model names mpnet-sim but declares tiny blocks; so do
	// mpnet-sim's own bytes with E's length off by one.
	var tiny bytes.Buffer
	if err := NewModel(tinyArch, 1).Save(&tiny); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"tiny blocks under mpnet-sim", tiny.Bytes()},
		{"E declared one short", withDeclaredLength(good, eLen, uint64(nE-1))},
		{"E declared one long", withDeclaredLength(good, eLen, uint64(nE+1))},
		{"E declared 2^63", withDeclaredLength(good, eLen, 1<<63)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load(tc.name, tc.raw)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes, want under 1 MiB", tc.name, alloc)
		}
	}
}

// withDeclaredLength returns a copy of raw with the block length at off
// set to n.
func withDeclaredLength(raw []byte, off int, n uint64) []byte {
	bad := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(bad[off:], n)
	return bad
}

// TestLoadAllocatesWeightsOnce: loading a saved mpnet-sim allocates its
// weights once plus a small fixed amount (the chunk and read buffers),
// where the gob decode allocated about five copies.
func TestLoadAllocatesWeightsOnce(t *testing.T) {
	m := NewModel(MPNetSim, 14)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m2, err := Load(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*m.WeightCount()+1<<20)
	t.Logf("Load allocated %d bytes for %d bytes of weights", alloc, 4*m2.WeightCount())
	if alloc > limit {
		t.Fatalf("Load allocated %d bytes, want at most %d (one copy of the weights + 1 MiB)", alloc, limit)
	}
}

// TestLoadPinnedAllocatesNoWeights: a pinned load of a saved mpnet-sim
// allocates under 1 MiB on the heap (the chunk and read buffers), where
// Load allocates its 13.2 MB of weights.
func TestLoadPinnedAllocatesNoWeights(t *testing.T) {
	m := NewModel(MPNetSim, 15)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	allocs := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := allocs()
	heap, err := Load(bytes.NewReader(raw))
	loadAlloc := allocs() - before
	if err != nil {
		t.Fatal(err)
	}
	before = allocs()
	p, release, err := LoadPinned(bytes.NewReader(raw))
	pinAlloc := allocs() - before
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if p.E == nil || heap.E == nil {
		t.Fatal("a load returned no weights")
	}
	if PinnedBytes() == 0 {
		t.Skipf("no anonymous mappings on %s: LoadPinned loads on the heap", runtime.GOOS)
	}
	t.Logf("heap allocated: Load %d bytes, LoadPinned %d bytes, for %d bytes of weights", loadAlloc, pinAlloc, 4*m.WeightCount())
	if pinAlloc >= 1<<20 {
		t.Errorf("LoadPinned allocated %d bytes on the heap, want under 1 MiB", pinAlloc)
	}
	if loadAlloc < uint64(4*m.WeightCount()) {
		t.Errorf("Load allocated %d bytes, less than its %d bytes of weights: the baseline measures nothing", loadAlloc, 4*m.WeightCount())
	}
}

// FuzzLoadModel: arbitrary bytes never panic Load, and never make it
// allocate more than one copy of the weights of the architecture the
// bytes name (plus 1 MiB); a gob stream names its architecture only
// inside the value it decodes, so it is held to the largest registered
// one.
func FuzzLoadModel(f *testing.F) {
	// The seeds are short, so the fuzzer minimises quickly: no
	// registered architecture is small enough for a whole model to be
	// one. A header declaring mpnet-sim's E exactly makes Load allocate E
	// before the bytes run out; one declaring another length is refused
	// before it.
	hdr := append([]byte{modelFormat, byte(len(MPNetSim.Name))}, MPNetSim.Name...)
	f.Add(binary.LittleEndian.AppendUint64(bytes.Clone(hdr), uint64(modelShapes(MPNetSim)[0])))
	f.Add(append(binary.LittleEndian.AppendUint64(bytes.Clone(hdr), 2), 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 1, 2, 3, 4))
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(modelWire{ArchName: MPNetSim.Name, E: []float32{1, 2}, W: []float32{3}, B: []float32{4}}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Add([]byte("not a model"))
	f.Add([]byte{modelFormat})
	largest := 0
	for _, a := range []Arch{MPNetSim, AlbertSim, Llama2Sim} {
		largest = max(largest, a.WeightCount())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		limit := uint64(4*largest + 1<<20)
		if len(raw) >= 2 && raw[0] == modelFormat && int(raw[1]) <= len(raw)-2 {
			limit = 1 << 20
			if cfg, err := ArchByName(string(raw[2 : 2+int(raw[1])])); err == nil {
				limit += uint64(4 * cfg.WeightCount())
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("Load of %d bytes allocated %d, want at most %d", len(raw), alloc, limit)
		}
		if err == nil && m.WeightCount() != m.Cfg.WeightCount() {
			t.Fatalf("loaded a %s model with %d weights, want %d", m.Cfg.Name, m.WeightCount(), m.Cfg.WeightCount())
		}
	})
}

// BenchmarkLoadMPNetSim times Load of a saved mpnet-sim from memory.
func BenchmarkLoadMPNetSim(b *testing.B) {
	var buf bytes.Buffer
	if err := NewModel(MPNetSim, 15).Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("Load accepted garbage input")
	}
}

// TestLoadRejectsWrongShapes: a gob that names a registered architecture
// but carries E, W or B of another length is refused, not adopted.
func TestLoadRejectsWrongShapes(t *testing.T) {
	m := NewModel(MPNetSim, 3)
	for _, tc := range []struct {
		name string
		wire modelWire
	}{
		{"E short", modelWire{ArchName: "mpnet-sim", E: m.E.Data[1:], W: m.W.Data, B: m.B}},
		{"W long", modelWire{ArchName: "mpnet-sim", E: m.E.Data, W: append(vecmath.Clone(m.W.Data), 0), B: m.B}},
		{"B empty", modelWire{ArchName: "mpnet-sim", E: m.E.Data, W: m.W.Data}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tc.wire); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted weights that do not fit mpnet-sim", tc.name)
		}
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
