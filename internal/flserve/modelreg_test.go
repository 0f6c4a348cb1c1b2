package flserve

import (
	"bytes"
	"encoding/gob"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/embed"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// TestFailedCommitLeavesRegistryUnchanged: Commit stores a version
// before it advances the registry, so a commit the store refuses (here
// ENOSPC) leaves Latest, its model and the history on the version
// before it.
func TestFailedCommitLeavesRegistryUnchanged(t *testing.T) {
	fs := faultfs.New()
	st, err := store.OpenFS(fs, "fl.store")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg, err := NewModelRegistry(st, 5, tinyArch)
	if err != nil {
		t.Fatal(err)
	}
	w := embed.NewModel(tinyArch, 1).Weights()
	rec := ModelRecord{Arch: tinyArch.Name, Dim: tinyArch.OutDim, Tau: 0.8}
	first, err := reg.Commit(rec, w)
	if err != nil {
		t.Fatalf("first commit: %v", err)
	}

	fs.SetSpace(16)
	w2 := append([]float32(nil), w...)
	w2[0] += 1
	rec.Round = 1
	if _, err := reg.Commit(rec, w2); err == nil {
		t.Fatal("commit past the store's space succeeded")
	}
	if got, ok := reg.Latest(); !ok || got.Version != first.Version {
		t.Fatalf("Latest after a failed commit = %+v, want version %s", got, first.Version)
	}
	m, err := reg.Model(first.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Weights(); got[0] != w[0] {
		t.Fatalf("latest weight 0 = %v after a failed commit, want %v", got[0], w[0])
	}
	if hist := reg.History(0); len(hist) != 1 {
		t.Fatalf("history holds %d versions after a failed commit, want 1", len(hist))
	}
}

// TestRegistryLoadsVersionsWithABasis: versions persisted while the wire
// record still carried a PCA basis (Basis/Mean, and BasisRows/BasisCols
// on the record) still open, because gob skips the fields the decoder's
// type lacks, and Model serves their weights as the raw model. A
// basis-less version keeps the ID it was committed under: the pinned
// value was computed when versionID still hashed a (nil) basis.
func TestRegistryLoadsVersionsWithABasis(t *testing.T) {
	type oldRecord struct {
		Version   string
		Round     int
		Arch      string
		Dim       int
		Tau       float64
		BasisRows int
		BasisCols int
	}
	type oldWire struct {
		Record  oldRecord
		Weights []float32
		Basis   []float32
		Mean    []float32
	}
	w := embed.NewModel(tinyArch, 3).Weights()
	if id := versionID(tinyArch.Name, 0.8, w); id != "578e40b52ca0be0f" {
		t.Fatalf("versionID = %s, want 578e40b52ca0be0f: existing stores would re-version their models", id)
	}
	const rows, cols = 4, 64
	old := oldWire{
		Record:  oldRecord{Version: versionID(tinyArch.Name, 0.8, w), Round: 2, Arch: tinyArch.Name, Dim: tinyArch.OutDim, Tau: 0.8, BasisRows: rows, BasisCols: cols},
		Weights: w,
		Basis:   make([]float32, rows*cols),
		Mean:    make([]float32, cols),
	}
	for i := range old.Basis {
		old.Basis[i] = float32(i%7) / 7
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenFS(faultfs.New(), "fl.store")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(modelKeyPrefix+old.Record.Version, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(latestKey, []byte(old.Record.Version)); err != nil {
		t.Fatal(err)
	}

	reg, err := NewModelRegistry(st, 5, tinyArch)
	if err != nil {
		t.Fatalf("opening a store written with a basis: %v", err)
	}
	rec, ok := reg.Latest()
	if !ok || rec.Version != old.Record.Version || rec.Round != 2 || rec.Tau != 0.8 {
		t.Fatalf("Latest = %+v, %v; want version %s from round 2", rec, ok, old.Record.Version)
	}
	m, err := reg.Model(rec.Version)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != tinyArch.OutDim {
		t.Fatalf("served model has dim %d, want the raw %d", m.Dim(), tinyArch.OutDim)
	}
	got := m.Weights()
	if len(got) != len(w) {
		t.Fatalf("served model holds %d weights, want %d", len(got), len(w))
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("weight %d = %v, want %v", i, got[i], w[i])
		}
	}
}

// TestRegistryOpenReadsServingWeightsOnce: opening a store that holds
// three versions reads their records and the latest version's weight
// block, so it allocates one copy of the weights plus slack, and serves
// the latest weights bit for bit. The gob layout decoded every version's
// weights to read its record, and the latest one twice.
func TestRegistryOpenReadsServingWeightsOnce(t *testing.T) {
	arch := tinyArch
	arch.Vocab, arch.EmbDim = 16383, 64 // 1 Mi weights: large against the 1 MiB slack
	st, err := store.Open(filepath.Join(t.TempDir(), "fl.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg, err := NewModelRegistry(st, 5, arch)
	if err != nil {
		t.Fatal(err)
	}
	var last []float32
	for round := 0; round < 3; round++ {
		last = embed.NewModel(arch, int64(round)).Weights()
		if _, err := reg.Commit(ModelRecord{Round: round, Arch: arch.Name, Dim: arch.OutDim, Tau: 0.8}, last); err != nil {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reopened, err := NewModelRegistry(st, 5, arch)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*arch.WeightCount()+1<<20)
	t.Logf("opening 3 versions allocated %d bytes for %d bytes of weights per version", alloc, 4*arch.WeightCount())
	if alloc > limit {
		t.Fatalf("opening 3 versions allocated %d bytes, want at most %d (one weight copy + 1 MiB)", alloc, limit)
	}
	if hist := reopened.History(0); len(hist) != 3 || hist[0].Round != 2 {
		t.Fatalf("reopened history = %+v, want rounds 2, 1, 0", hist)
	}
	rec, _ := reopened.Latest()
	m, err := reopened.Model(rec.Version)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Weights()
	if len(got) != len(last) {
		t.Fatalf("reopened latest holds %d weights, want %d", len(got), len(last))
	}
	for i := range last {
		if math.Float32bits(got[i]) != math.Float32bits(last[i]) {
			t.Fatalf("reopened weight %d = %v, want %v", i, got[i], last[i])
		}
	}
}

// TestRegistryRefusesCorruptWeights: a serving version whose weight
// block fails its checksum is refused when the store opens, not served.
func TestRegistryRefusesCorruptWeights(t *testing.T) {
	st, err := store.OpenFS(faultfs.New(), "fl.store")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg, err := NewModelRegistry(st, 5, tinyArch)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := reg.Commit(ModelRecord{Arch: tinyArch.Name, Dim: tinyArch.OutDim, Tau: 0.8}, embed.NewModel(tinyArch, 1).Weights())
	if err != nil {
		t.Fatal(err)
	}
	block, err := st.Get(weightsKeyPrefix + rec.Version)
	if err != nil {
		t.Fatal(err)
	}
	block[len(block)/2] ^= 1
	if err := st.Put(weightsKeyPrefix+rec.Version, block); err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelRegistry(st, 5, tinyArch); err == nil {
		t.Fatal("opened a store whose serving weights fail their checksum")
	}
}
