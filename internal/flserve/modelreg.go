package flserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
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

// A version is stored under two keys: its record under modelKeyPrefix,
// as recordFormat followed by the record's JSON, and its weights under
// weightsKeyPrefix, as one embed weight block (a length, the raw
// float32 bits and a CRC-32). Opening a store reads the records only,
// and the serving version's weights once. Versions stored before this
// layout hold one gob stream (modelWire: record and weights) under
// modelKeyPrefix; they still open, but are never written. 0x81 never
// starts a gob stream, so the first byte tells the two apart.
const recordFormat byte = 0x81

// modelWire is the legacy gob form of a version. Versions written when
// the wire also carried a PCA basis still decode: gob skips the fields
// this type lacks.
type modelWire struct {
	Record  ModelRecord
	Weights []float32
}

// ModelRegistry is the versioned, content-addressed store of global
// models the online FL loop produces. It keeps the last maxVersions
// versions (metadata in memory, the latest version as one model, older
// payloads in the optional store); versions beyond the retention bound
// are pruned entirely — Lookup, History and Model all stop resolving
// them, with or without a store.
type ModelRegistry struct {
	maxVersions int
	arch        embed.Arch // shared by every committed version

	mu      sync.RWMutex
	st      *store.Store // optional
	order   []string     // commit order, oldest first
	records map[string]ModelRecord
	latest  string
	// model is the latest version, read-only: it is the model the
	// serving encoder holds once the version is rolled out, and the one a
	// round trains from.
	model *embed.Model
}

const (
	modelKeyPrefix   = "fsmodel/"
	weightsKeyPrefix = "fsweights/"
	latestKey        = "fsmodel-latest"
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
	var all []ModelRecord
	for _, key := range st.Keys() {
		if !strings.HasPrefix(key, modelKeyPrefix) {
			continue
		}
		raw, err := st.Get(key)
		if err != nil {
			return nil, err
		}
		rec, err := decodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("flserve: decoding persisted model %s: %w", key, err)
		}
		all = append(all, rec)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Round < all[j].Round })
	for _, rec := range all {
		r.records[rec.Version] = rec
		r.order = append(r.order, rec.Version)
	}
	if raw, err := st.Get(latestKey); err == nil {
		if v := string(raw); r.records[v].Version != "" {
			m, err := r.storedModel(v, st.Reader)
			if err != nil {
				return nil, err
			}
			r.latest = v
			r.model = m
		}
	}
	return r, nil
}

// decodeRecord parses a version's record value, in either format.
func decodeRecord(raw []byte) (ModelRecord, error) {
	var rec ModelRecord
	if len(raw) > 0 && raw[0] == recordFormat {
		err := json.Unmarshal(raw[1:], &rec)
		return rec, err
	}
	var w modelWire
	err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w)
	return w.Record, err
}

// storedModel builds version's model from the weights it reads through
// open, one of the store's readers: its weight block, or the weights
// inside a legacy gob record. Either must hold exactly the
// architecture's weight count.
func (r *ModelRegistry) storedModel(version string, open func(key string) (io.Reader, error)) (*embed.Model, error) {
	n := r.arch.WeightCount()
	rd, err := open(weightsKeyPrefix + version)
	if err == nil {
		w, err := embed.ReadWeightBlock(rd, n)
		if err != nil {
			return nil, fmt.Errorf("flserve: reading version %q weights: %w", version, err)
		}
		return embed.FromWeights(r.arch, w)
	}
	if !errors.Is(err, store.ErrNotFound) {
		return nil, err
	}
	if rd, err = open(modelKeyPrefix + version); err != nil {
		return nil, fmt.Errorf("flserve: version %q payload pruned: %w", version, err)
	}
	var w modelWire
	if err := gob.NewDecoder(rd).Decode(&w); err != nil {
		return nil, fmt.Errorf("flserve: decoding version %q: %w", version, err)
	}
	m, err := embed.FromWeights(r.arch, w.Weights)
	if err != nil {
		return nil, fmt.Errorf("flserve: version %q: %w", version, err)
	}
	return m, nil
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
// The registry adopts weights as the latest version's model, so the
// caller must not modify them afterwards. The version is written to the
// store first; only once it is stored does the latest version advance,
// so a failed commit leaves the registry unchanged.
// Payloads older than maxVersions are then pruned from the store.
func (r *ModelRegistry) Commit(rec ModelRecord, weights []float32) (ModelRecord, error) {
	m, err := embed.FromWeights(r.arch, weights)
	if err != nil {
		return rec, fmt.Errorf("flserve: committing a model: %w", err)
	}
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
		// Weights before the record, and the record before the latest
		// pointer: a crash between two puts leaves at worst an orphan
		// block, never a record or a pointer without its weights.
		var block bytes.Buffer
		if err := embed.WriteWeightBlock(&block, weights); err != nil {
			return rec, err
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			return rec, fmt.Errorf("flserve: encoding model record: %w", err)
		}
		if err := r.st.Put(weightsKeyPrefix+rec.Version, block.Bytes()); err != nil {
			return rec, err
		}
		if err := r.st.Put(modelKeyPrefix+rec.Version, append([]byte{recordFormat}, raw...)); err != nil {
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
	r.model = m
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
			if err := r.st.Delete(weightsKeyPrefix + old); err != nil {
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

// Model returns a committed version's model. The latest version's is the
// registry's own, shared with the serving encoder once rolled out:
// callers must not modify it. Older versions are rebuilt from the store.
func (r *ModelRegistry) Model(version string) (*embed.Model, error) {
	r.mu.RLock()
	_, ok := r.records[version]
	latest := r.model
	if version != r.latest {
		latest = nil
	}
	st := r.st
	r.mu.RUnlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("flserve: unknown model version %q", version)
	case latest != nil:
		return latest, nil
	case st == nil:
		return nil, fmt.Errorf("flserve: version %q payload no longer resident", version)
	}
	// Copied out under the store's lock: a Compact racing this read
	// cannot cut it short.
	return r.storedModel(version, func(key string) (io.Reader, error) {
		raw, err := st.Get(key)
		return bytes.NewReader(raw), err
	})
}
