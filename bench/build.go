package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/fl"
	"repro/internal/train"
)

// artifactDir holds everything the benchmark builds or writes: the
// cacheserve binary, the trained encoder, and per-run temp dirs. It is
// under the git-ignored bin/, inside the checkout.
const artifactDir = "bin/bench"

// The encoder is a constant of the benchmark: -seed drives only the
// workloads. These are cmd/fltrain's flags for
// `fltrain -mode local -rounds 10 -epochs 2 -seed 1`.
const (
	modelSeed     = 1
	modelRounds   = 10
	modelEpochs   = 2
	modelClients  = 20
	modelPerRound = 4
)

// modelMeta is the sidecar written next to the trained model.
type modelMeta struct {
	Tau    float64 `json:"tau_global"`
	TrainS float64 `json:"train_s"`
}

// buildServer compiles the shipped cmd/cacheserve into artifactDir. The
// go build cache makes a rebuild of unchanged sources a sub-second no-op.
func buildServer() (string, error) {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(artifactDir, "cacheserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cacheserve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/cacheserve (run from the repository root): %w", err)
	}
	return bin, nil
}

// ensureModel returns the trained mpnet-sim encoder's path, training it
// through the public fl/train API on first use in a checkout. Training is
// bit-identical across runs, so the file is a build artefact like the
// binary: later runs in the same checkout reuse it, and fl.train_s is
// the recorded time of the run that trained it.
func ensureModel() (string, modelMeta, error) {
	path := filepath.Join(artifactDir, "mpnet-sim.gob")
	metaPath := path + ".json"
	var meta modelMeta
	if raw, err := os.ReadFile(metaPath); err == nil {
		if _, serr := os.Stat(path); serr == nil && json.Unmarshal(raw, &meta) == nil && meta.Tau > 0 {
			return path, meta, nil
		}
	}
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return "", meta, err
	}
	start := time.Now()
	model, tau, err := trainModel()
	if err != nil {
		return "", meta, err
	}
	meta = modelMeta{Tau: tau, TrainS: time.Since(start).Seconds()}
	if err := writeFileAtomic(path, func(f *os.File) error { return model.Save(f) }); err != nil {
		return "", meta, fmt.Errorf("saving model: %w", err)
	}
	// The sidecar is written last: its presence means the model is whole.
	raw, _ := json.Marshal(meta) // a struct of two floats cannot fail to encode
	if err := writeFileAtomic(metaPath, func(f *os.File) error { _, err := f.Write(raw); return err }); err != nil {
		return "", meta, fmt.Errorf("saving model sidecar: %w", err)
	}
	return path, meta, nil
}

// trainModel is cmd/fltrain's local mode with the constants above.
func trainModel() (*embed.Model, float64, error) {
	arch := embed.MPNetSim
	trainCfg := train.DefaultConfig()
	trainCfg.Epochs = modelEpochs
	corpusCfg := dataset.DefaultConfig()
	corpusCfg.Seed = modelSeed
	corpus := dataset.GenerateCorpus(corpusCfg)
	shards := dataset.SplitPairs(corpus.Train, modelClients, rand.New(rand.NewSource(modelSeed+200)))
	fleet := make([]fl.Client, modelClients)
	for i := range fleet {
		fleet[i] = fl.NewLocalClient(i, arch, modelSeed+100, shards[i], trainCfg, 0.5)
	}
	global := embed.NewModel(arch, modelSeed+100)
	srv := fl.NewServer(global, fleet, fl.ServerConfig{
		Rounds:          modelRounds,
		ClientsPerRound: modelPerRound,
		Seed:            modelSeed + 300,
		InitialTau:      0.7,
	})
	if err := srv.Run(nil); err != nil {
		return nil, 0, fmt.Errorf("training the encoder: %w", err)
	}
	return global, srv.Tau(), nil
}

// writeFileAtomic writes path through a temp file and a rename, so a run
// killed mid-write never leaves a torn artefact for the next run.
func writeFileAtomic(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
