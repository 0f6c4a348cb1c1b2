package flserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/embed"
	"repro/internal/store"
)

// ModelRecord describes one committed global model version: the encoder
// weights and the aggregated global threshold, under one content-derived
// version ID. Metadata
// is what /v1/model and /v1/fl/status expose; the weight vector itself is
// fetched separately (it is megabytes).
type ModelRecord struct {
	// Version is the content address: hex(sha256(arch|tau|weights))
	// truncated to 16 chars. Identical models from identical rounds get
	// identical versions, so a replayed commit is a no-op.
	Version string `json:"version"`
	// Parent is the version this one was trained from ("" for the root).
	Parent string `json:"parent,omitempty"`
	// Round is the coordinator round that produced it (-1 for imported
	// models).
	Round int `json:"round"`
	// Arch names the encoder architecture.
	Arch string `json:"arch"`
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Tau is the aggregated global threshold shipped with the model.
	Tau float64 `json:"tau"`
	// Cohort is how many clients contributed.
	Cohort int `json:"cohort"`
	// Samples is the total training-sample count across the cohort.
	Samples int `json:"samples"`
}

// modelWire is the persisted form of a version (record + payload).
// Versions written when the wire also carried a PCA basis still decode:
// gob skips the fields this type lacks.
type modelWire struct {
	Record  ModelRecord
	Weights []float32
}

// ModelRegistry is the versioned, content-addressed store of global
// models the online FL loop produces. It keeps the last maxVersions
// versions (metadata in memory, the latest payload hot, older payloads in
// the optional store); versions beyond the retention bound are pruned
// entirely — Lookup, History and Model all stop resolving them, with or
// without a store.
type ModelRegistry struct {
	maxVersions int
	arch        embed.Arch // shared by every committed version

	mu      sync.RWMutex
	st      *store.Store // optional
	order   []string     // commit order, oldest first
	records map[string]ModelRecord
	latest  string
	weights []float32 // hot payload of the latest version
}

const (
	modelKeyPrefix = "fsmodel/"
	latestKey      = "fsmodel-latest"
)

// NewModelRegistry builds a registry for versions of the given
// architecture. st is optional; when set, committed versions are
// persisted and the latest persisted version is reloaded, so a restarted
// serving process resumes from its last global model. maxVersions bounds
// how many full payloads are retained (default 5).
func NewModelRegistry(st *store.Store, maxVersions int, arch embed.Arch) (*ModelRegistry, error) {
	if maxVersions <= 0 {
		maxVersions = 5
	}
	r := &ModelRegistry{maxVersions: maxVersions, arch: arch, st: st, records: make(map[string]ModelRecord)}
	if st == nil {
		return r, nil
	}
	// Replay persisted versions in round order.
	type stored struct {
		key  string
		wire modelWire
	}
	var all []stored
	for _, key := range st.Keys() {
		if len(key) <= len(modelKeyPrefix) || key[:len(modelKeyPrefix)] != modelKeyPrefix {
			continue
		}
		raw, err := st.Get(key)
		if err != nil {
			return nil, err
		}
		var w modelWire
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err != nil {
			return nil, fmt.Errorf("flserve: decoding persisted model %s: %w", key, err)
		}
		all = append(all, stored{key, w})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].wire.Record.Round < all[j].wire.Record.Round })
	for _, s := range all {
		r.records[s.wire.Record.Version] = s.wire.Record
		r.order = append(r.order, s.wire.Record.Version)
	}
	if raw, err := st.Get(latestKey); err == nil {
		v := string(raw)
		if raw, err := st.Get(modelKeyPrefix + v); err == nil {
			var w modelWire
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err == nil {
				r.latest = v
				r.weights = w.Weights
			}
		}
	}
	return r, nil
}

// versionID content-addresses a model.
func versionID(arch string, tau float64, weights []float32) string {
	h := sha256.New()
	h.Write([]byte(arch))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tau))
	h.Write(buf[:])
	for _, x := range weights {
		binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(x))
		h.Write(buf[:4])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Commit registers a freshly aggregated model and returns its record.
// The version is written to the store first; only once it is stored does
// the latest pointer advance, so a failed commit leaves the registry
// unchanged.
// Payloads older than maxVersions are then pruned from the store.
func (r *ModelRegistry) Commit(rec ModelRecord, weights []float32) (ModelRecord, error) {
	rec.Version = versionID(rec.Arch, rec.Tau, weights)
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Parent = r.latest
	prev, seen := r.records[rec.Version]
	if seen {
		// Identical content re-committed: keep the original lineage.
		rec = prev
	}
	if r.st != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(modelWire{Record: rec, Weights: weights}); err != nil {
			return rec, err
		}
		if err := r.st.Put(modelKeyPrefix+rec.Version, buf.Bytes()); err != nil {
			return rec, err
		}
		if err := r.st.Put(latestKey, []byte(rec.Version)); err != nil {
			return rec, err
		}
	}
	if !seen {
		r.records[rec.Version] = rec
		r.order = append(r.order, rec.Version)
	}
	r.latest = rec.Version
	r.weights = append([]float32(nil), weights...)
	// Prune versions beyond the retention bound — consistently in both
	// in-memory and persisted modes, so the registry stays bounded.
	for len(r.order) > r.maxVersions && r.order[0] != r.latest {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.records, old)
		if r.st != nil {
			if err := r.st.Delete(modelKeyPrefix + old); err != nil {
				return rec, err
			}
		}
	}
	return rec, nil
}

// Latest returns the current version's record (ok=false before the first
// commit).
func (r *ModelRegistry) Latest() (ModelRecord, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.latest == "" {
		return ModelRecord{}, false
	}
	return r.records[r.latest], true
}

// LatestWeights returns a copy of the current version's weight vector
// (nil before the first commit).
func (r *ModelRegistry) LatestWeights() []float32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.weights) == 0 {
		return nil
	}
	return append([]float32(nil), r.weights...)
}

// Lookup returns the record for a specific version.
func (r *ModelRegistry) Lookup(version string) (ModelRecord, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.records[version]
	return rec, ok
}

// History returns up to n most recent records, newest first.
func (r *ModelRegistry) History(n int) []ModelRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || n > len(r.order) {
		n = len(r.order)
	}
	out := make([]ModelRecord, 0, n)
	for i := len(r.order) - 1; i >= len(r.order)-n; i-- {
		out = append(out, r.records[r.order[i]])
	}
	return out
}

// Model materialises a committed version as the trainable model rebuilt
// from its stored weights. Only the latest version's payload is
// guaranteed hot; older versions are read from the store.
func (r *ModelRegistry) Model(version string) (*embed.Model, error) {
	r.mu.RLock()
	_, ok := r.records[version]
	var weights []float32
	if ok && version == r.latest {
		weights = append([]float32(nil), r.weights...)
	}
	st := r.st
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("flserve: unknown model version %q", version)
	}
	if weights == nil {
		if st == nil {
			return nil, fmt.Errorf("flserve: version %q payload no longer resident", version)
		}
		raw, err := st.Get(modelKeyPrefix + version)
		if err != nil {
			return nil, fmt.Errorf("flserve: version %q payload pruned: %w", version, err)
		}
		var w modelWire
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err != nil {
			return nil, err
		}
		weights = w.Weights
	}
	m := embed.NewModel(r.arch, 0)
	if len(weights) != m.WeightCount() {
		return nil, fmt.Errorf("flserve: version %q holds %d weights, arch wants %d",
			version, len(weights), m.WeightCount())
	}
	m.SetWeights(weights)
	return m, nil
}
