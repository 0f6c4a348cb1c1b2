//go:build !(linux || darwin)

package index

// newRowMem puts a list's rows and codes on the Go heap where there are
// no anonymous mappings to hold them; mem is always nil.
func newRowMem(floats int) (vecs []float32, codes []int8, mem []byte) {
	return make([]float32, floats), make([]int8, floats), nil
}

// freeRowMem has nothing to release: newRowMem never maps.
func freeRowMem([]byte) {}
