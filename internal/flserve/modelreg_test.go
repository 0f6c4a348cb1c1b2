package flserve

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// TestFailedCommitLeavesRegistryUnchanged: Commit stores a version
// before it advances the registry, so a commit the store refuses (here
// ENOSPC) leaves Latest, its weights and the history on the version
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
	first, err := reg.Commit(rec, w, nil, nil)
	if err != nil {
		t.Fatalf("first commit: %v", err)
	}

	fs.SetSpace(16)
	w2 := append([]float32(nil), w...)
	w2[0] += 1
	rec.Round = 1
	if _, err := reg.Commit(rec, w2, nil, nil); err == nil {
		t.Fatal("commit past the store's space succeeded")
	}
	if got, ok := reg.Latest(); !ok || got.Version != first.Version {
		t.Fatalf("Latest after a failed commit = %+v, want version %s", got, first.Version)
	}
	if got := reg.LatestWeights(); got[0] != w[0] {
		t.Fatalf("LatestWeights[0] = %v after a failed commit, want %v", got[0], w[0])
	}
	if hist := reg.History(0); len(hist) != 1 {
		t.Fatalf("history holds %d versions after a failed commit, want 1", len(hist))
	}
}
