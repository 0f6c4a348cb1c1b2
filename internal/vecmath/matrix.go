package vecmath

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix. Rows×Cols elements are stored
// contiguously in Data so that a row is a cheap sub-slice and matrix-vector
// products walk memory linearly.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a sub-slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// RandomizeNormal fills m with N(0, std²) samples from rng. Used for weight
// initialisation; callers pass std = 1/sqrt(fanIn) for variance-preserving
// initial layers.
func (m *Matrix) RandomizeNormal(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// MulVec computes dst = m · x where x has m.Cols elements and dst has m.Rows.
// It is one ScanDot pass over the rows, so dst[i] is bit-identical to
// Dot(m.Row(i), x).
func (m *Matrix) MulVec(dst, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("vecmath: MulVec shape mismatch m=%dx%d len(x)=%d len(dst)=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	ScanDot(x, m.Data, dst)
}

// MulVecT computes dst = mᵀ · x where x has m.Rows elements and dst has
// m.Cols. This is the backward-pass companion of MulVec.
func (m *Matrix) MulVecT(dst, x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("vecmath: MulVecT shape mismatch m=%dx%d len(x)=%d len(dst)=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
}

// MatMul returns a·b. Shapes must agree (a.Cols == b.Rows). The inner loop is
// ordered ikj so b is streamed row-wise; rows of the output are computed in
// parallel across the worker pool for large products.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vecmath: MatMul shape mismatch %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	mulRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Row(i)
			oi := out.Row(i)
			for k, av := range ai {
				if av == 0 {
					continue
				}
				Axpy(av, b.Row(k), oi)
			}
		}
	}
	// Parallelising tiny products costs more in scheduling than it saves.
	if a.Rows*a.Cols*b.Cols < 1<<16 {
		mulRange(0, a.Rows)
	} else {
		ParallelFor(a.Rows, mulRange)
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// AddScaled accumulates m += alpha*other. Shapes must match.
func (m *Matrix) AddScaled(alpha float32, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("vecmath: AddScaled shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	Axpy(alpha, other.Data, m.Data)
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float32 {
	return float32(math.Sqrt(float64(Dot(m.Data, m.Data))))
}
