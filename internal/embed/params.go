package embed

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"

	"repro/internal/tokenizer"
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

// FromWeights builds a model of arch around w, flat parameters in
// CopyWeights' order (E, W, B). The model adopts w as its own storage:
// nothing is copied and nothing is drawn from an RNG, so the caller must
// not modify w afterwards.
func FromWeights(arch Arch, w []float32) (*Model, error) {
	s := modelShapes(arch)
	if len(w) != s[0]+s[1]+s[2] {
		return nil, fmt.Errorf("embed: %d weights for architecture %s, want %d", len(w), arch.Name, s[0]+s[1]+s[2])
	}
	ew := s[0] + s[1]
	return loaded(arch, w[:s[0]:s[0]], w[s[0]:ew:ew], w[ew:]), nil
}

// modelFormat is the first byte of a model file:
//
//	modelFormat(1) len(1) arch name
//	block(E) block(W) block(B)
//
// and nothing after it, where each block is what WriteWeightBlock
// writes. Earlier versions wrote one gob stream (modelWire); those still
// load, but are never written. A gob stream opens with its first
// message's byte count, which encoding/gob writes as a single byte
// ≤ 0x7f or as 0xf8–0xff followed by the count, so 0x81 never starts
// one and the first byte alone tells the two formats apart (the cache's
// entry records use the same byte for the same reason).
const modelFormat byte = 0x81

// modelWire is the legacy gob form of a model, read by Load only.
type modelWire struct {
	ArchName string
	E, W     []float32
	B        []float32
}

// Save writes the model (architecture name + weights) to w in the
// checksummed block format Load reads.
func (m *Model) Save(w io.Writer) error {
	name := m.Cfg.Name
	if len(name) > 255 {
		return fmt.Errorf("embed: architecture name %q is longer than 255 bytes", name)
	}
	bw := bufio.NewWriter(w)
	bw.WriteByte(modelFormat)
	bw.WriteByte(byte(len(name)))
	bw.WriteString(name)
	for _, v := range [][]float32{m.E.Data, m.W.Data, m.B} {
		if err := WriteWeightBlock(bw, v); err != nil {
			return fmt.Errorf("embed: writing model: %w", err)
		}
	}
	return bw.Flush()
}

// Load reads a model written by Save, or a legacy gob model. The
// architecture is resolved from the registry by name, and every block's
// declared length is checked against that architecture's shapes before
// anything is allocated for it, so a load allocates the weights once and
// a file can never make it allocate more than its architecture holds. A
// checksum mismatch, a truncated file or bytes after the last block are
// refused with an error.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	cfg, legacy, err := readModelHeader(br)
	if err != nil {
		return nil, err
	}
	if legacy {
		return loadGob(br)
	}
	return loadBlocks(br, cfg)
}

// LoadPinned is Load into a pinned model (see Pin): a block-format
// file's weights are read straight into the mapping, so the load
// allocates no copy of them on the heap, and every check Load makes is
// made. A legacy gob model is loaded on the heap and then pinned. Where
// no mapping can be made the model is Load's and release a no-op.
func LoadPinned(r io.Reader) (m *Model, release func(), err error) {
	br := bufio.NewReader(r)
	cfg, legacy, err := readModelHeader(br)
	if err != nil {
		return nil, nil, err
	}
	if legacy {
		if m, err = loadGob(br); err != nil {
			return nil, nil, err
		}
		m, release = Pin(m)
		return m, release, nil
	}
	m, release, err = pinned(cfg, func(w []float32) error {
		return readBlocks(br, cfg, func(_, n int) error {
			v := w[:n]
			w = w[n:]
			return readWeightBlock(br, n, func() []float32 { return v })
		})
	})
	if m == nil && err == nil {
		m, err = loadBlocks(br, cfg)
		release = func() {}
	}
	if err != nil {
		return nil, nil, err
	}
	return m, release, nil
}

// readModelHeader reads a block-format model's header and resolves its
// architecture, or reports a legacy gob stream, of which it reads
// nothing.
func readModelHeader(br *bufio.Reader) (cfg Arch, legacy bool, err error) {
	first, err := br.Peek(1)
	if err != nil {
		return Arch{}, false, fmt.Errorf("embed: reading model: %w", err)
	}
	if first[0] != modelFormat {
		return Arch{}, true, nil
	}
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Arch{}, false, fmt.Errorf("embed: reading model header: %w", err)
	}
	name := make([]byte, hdr[1])
	if _, err := io.ReadFull(br, name); err != nil {
		return Arch{}, false, fmt.Errorf("embed: reading model header: %w", err)
	}
	cfg, err = ArchByName(string(name))
	return cfg, false, err
}

// loadBlocks reads cfg's three weight blocks onto the heap, allocating
// each once its declared length has been checked.
func loadBlocks(br *bufio.Reader, cfg Arch) (*Model, error) {
	var blocks [3][]float32
	err := readBlocks(br, cfg, func(i, n int) (err error) {
		blocks[i], err = ReadWeightBlock(br, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	return loaded(cfg, blocks[0], blocks[1], blocks[2]), nil
}

// readBlocks calls read for each of cfg's weight blocks in file order
// with its index and length, then requires the end of the file.
func readBlocks(br *bufio.Reader, cfg Arch, read func(i, n int) error) error {
	for i, n := range modelShapes(cfg) {
		if err := read(i, n); err != nil {
			return fmt.Errorf("embed: reading %s model: %w", cfg.Name, err)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("embed: %s model has bytes after its last block", cfg.Name)
	}
	return nil
}

// loadGob reads the legacy gob form.
func loadGob(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("embed: decoding model: %w", err)
	}
	cfg, err := ArchByName(wire.ArchName)
	if err != nil {
		return nil, err
	}
	if shapes := modelShapes(cfg); len(wire.E) != shapes[0] || len(wire.W) != shapes[1] || len(wire.B) != shapes[2] {
		return nil, fmt.Errorf("embed: stored weights do not match architecture %q", wire.ArchName)
	}
	// The decode went through about four copies of the weights, and the
	// GC pacer sets its next heap goal from the heap it last marked: a
	// cycle that landed mid-decode would let a serving process's heap
	// grow to that peak before its next cycle. Collecting here, with
	// only the weights live, sets the goal from the model. A block-format
	// load makes no such garbage, and collecting after it raised the
	// serving peak slightly, so only this path collects.
	runtime.GC()
	return loaded(cfg, wire.E, wire.W, wire.B), nil
}

// modelShapes is the length of E, W and B that NewModel allocates for
// cfg: E has the anchor row past the vocab.
func modelShapes(cfg Arch) [3]int {
	return [3]int{(cfg.Vocab + 1) * cfg.EmbDim, cfg.OutDim * cfg.EmbDim, cfg.OutDim}
}

// WeightCount reports how many scalar parameters a model of a holds,
// without building one.
func (a Arch) WeightCount() int {
	s := modelShapes(a)
	return s[0] + s[1] + s[2]
}

// loaded builds a model of cfg that takes e, w and b, already checked
// against modelShapes, as its own.
func loaded(cfg Arch, e, w, b []float32) *Model {
	return &Model{
		Cfg: cfg,
		Tok: tokenizer.New(cfg.Mode, cfg.Vocab),
		E:   &vecmath.Matrix{Rows: cfg.Vocab + 1, Cols: cfg.EmbDim, Data: e},
		W:   &vecmath.Matrix{Rows: cfg.OutDim, Cols: cfg.EmbDim, Data: w},
		B:   b,
	}
}

// blockChunk is the byte size of the buffer a weight block is encoded
// and decoded through, so neither side holds a second copy of the
// weights as bytes.
const blockChunk = 64 << 10

// WriteWeightBlock writes v to w as one weight block:
//
//	n uint64 | n × float32 bits | crc32
//
// all little-endian, where the CRC-32 (IEEE) covers n and the bits. It is
// the one on-disk and on-wire form of a weight vector: the model file
// holds three, and the FL model registry stores each version's weights
// as one.
func WriteWeightBlock(w io.Writer, v []float32) error {
	buf := make([]byte, 0, min(8+4*len(v), blockChunk))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v)))
	var sum uint32
	for {
		k := min(len(v), (cap(buf)-len(buf))/4)
		for _, x := range v[:k] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		v = v[k:]
		sum = crc32.Update(sum, crc32.IEEETable, buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if len(v) == 0 {
			break
		}
		buf = buf[:0]
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(buf[:0], sum))
	return err
}

// ReadWeightBlock reads one block written by WriteWeightBlock that must
// hold exactly n values. The declared count is checked against n before
// the result is allocated, the bits are decoded straight into it through
// a small chunk buffer, and a checksum mismatch is an error.
func ReadWeightBlock(r io.Reader, n int) ([]float32, error) {
	var v []float32
	err := readWeightBlock(r, n, func() []float32 {
		v = make([]float32, n)
		return v
	})
	return v, err
}

// readWeightBlock reads a block of n values into the slice dst returns,
// calling dst only once the declared count has matched n.
func readWeightBlock(r io.Reader, n int, dst func() []float32) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("reading weight block length: %w", err)
	}
	if got := binary.LittleEndian.Uint64(hdr[:]); got != uint64(n) {
		return fmt.Errorf("weight block holds %d values, want %d", got, n)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	v := dst()
	buf := make([]byte, min(4*n, blockChunk))
	for i := 0; i < n; {
		b := buf[:4*min(n-i, len(buf)/4)]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("reading weight block: %w", err)
		}
		sum = crc32.Update(sum, crc32.IEEETable, b)
		for j := 0; j < len(b); j += 4 {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[j:]))
			i++
		}
	}
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return fmt.Errorf("reading weight block checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != sum {
		return errors.New("weight block checksum mismatch")
	}
	return nil
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
