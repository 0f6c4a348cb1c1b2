package embed

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/vecmath"
)

// WeightCount reports the total number of scalar parameters in the model.
func (m *Model) WeightCount() int {
	return len(m.E.Data) + len(m.W.Data) + len(m.B)
}

// CopyWeights flattens all parameters into dst in a fixed order (E, W, B).
// dst must have WeightCount() elements. The flat form is the unit of
// exchange in the FL protocol (internal/fl) and of FedAvg aggregation.
func (m *Model) CopyWeights(dst []float32) {
	if len(dst) != m.WeightCount() {
		panic(fmt.Sprintf("embed: CopyWeights dst len %d, want %d", len(dst), m.WeightCount()))
	}
	n := copy(dst, m.E.Data)
	n += copy(dst[n:], m.W.Data)
	copy(dst[n:], m.B)
}

// SetWeights installs flat parameters previously produced by CopyWeights
// (possibly aggregated across clients).
func (m *Model) SetWeights(src []float32) {
	if len(src) != m.WeightCount() {
		panic(fmt.Sprintf("embed: SetWeights src len %d, want %d", len(src), m.WeightCount()))
	}
	n := copy(m.E.Data, src)
	n += copy(m.W.Data, src[n:])
	copy(m.B, src[n:])
}

// Weights returns a freshly allocated flat copy of the parameters.
func (m *Model) Weights() []float32 {
	w := make([]float32, m.WeightCount())
	m.CopyWeights(w)
	return w
}

// modelWire is the gob-encoded persistent form of a model.
type modelWire struct {
	ArchName string
	E, W     []float32
	B        []float32
}

// Save writes the model (architecture name + weights) to w.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(modelWire{
		ArchName: m.Cfg.Name,
		E:        m.E.Data,
		W:        m.W.Data,
		B:        m.B,
	}); err != nil {
		return fmt.Errorf("embed: encoding model: %w", err)
	}
	return bw.Flush()
}

// Load reads a model previously written by Save. The architecture is
// resolved from the registry by name.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("embed: decoding model: %w", err)
	}
	cfg, err := ArchByName(wire.ArchName)
	if err != nil {
		return nil, err
	}
	m := NewModel(cfg, 0)
	if len(wire.E) != len(m.E.Data) || len(wire.W) != len(m.W.Data) || len(wire.B) != len(m.B) {
		return nil, fmt.Errorf("embed: stored weights do not match architecture %q", wire.ArchName)
	}
	copy(m.E.Data, wire.E)
	copy(m.W.Data, wire.W)
	copy(m.B, wire.B)
	return m, nil
}

// Projected wraps an Encoder with an affine projection (typically the PCA
// basis learnt by internal/pca), re-normalising the result. This is the
// "updated embedding model" of Figure 3: the projection becomes an
// additional final layer so cached and probe embeddings share the
// compressed space.
//
// Centering matters: without subtracting the fitted mean, every projected
// embedding shares a large common component, cosines saturate toward 1,
// and threshold-based matching degenerates.
type Projected struct {
	base Encoder
	p    *vecmath.Matrix // k × base.Dim()
	mean []float32       // subtracted before projection; may be nil
}

// WithProjection attaches projection p (k × base.Dim()) to base with no
// centering. Prefer WithCenteredProjection for PCA bases.
func WithProjection(base Encoder, p *vecmath.Matrix) *Projected {
	return WithCenteredProjection(base, p, nil)
}

// WithCenteredProjection attaches projection p (k × base.Dim()) to base,
// subtracting mean (length base.Dim(), from the PCA fit) before
// projecting. A nil mean skips centering.
func WithCenteredProjection(base Encoder, p *vecmath.Matrix, mean []float32) *Projected {
	if p.Cols != base.Dim() {
		panic(fmt.Sprintf("embed: projection cols %d != encoder dim %d", p.Cols, base.Dim()))
	}
	if mean != nil && len(mean) != base.Dim() {
		panic(fmt.Sprintf("embed: projection mean len %d != encoder dim %d", len(mean), base.Dim()))
	}
	return &Projected{base: base, p: p, mean: mean}
}

// Encode implements Encoder: base embedding, centre, project, re-normalise.
func (pr *Projected) Encode(text string) []float32 {
	raw := pr.base.Encode(text)
	if pr.mean != nil {
		vecmath.Axpy(-1, pr.mean, raw)
	}
	out := make([]float32, pr.p.Rows)
	pr.p.MulVec(out, raw)
	if vecmath.Normalize(out) == 0 {
		out[0] = 1
	}
	return out
}

// Dim implements Encoder.
func (pr *Projected) Dim() int { return pr.p.Rows }

// Name implements Encoder.
func (pr *Projected) Name() string {
	return fmt.Sprintf("%s+pca%d", pr.base.Name(), pr.p.Rows)
}
