//go:build !amd64

package vecmath

// scanBlocks scores no rows off amd64: ScanDot is the per-row Dot loop.
func scanBlocks(probe, rows, out []float32) int { return 0 }

// scanQ8Blocks scores no rows off amd64: ScanQ8 is the per-row dotQ8 loop.
func scanQ8Blocks(probe []int16, rows []int8, out []int32) int { return 0 }

// hasAVX2 and useAVX2 select amd64's int8 kernel; off amd64 there is
// none.
const hasAVX2 = false

var useAVX2 = false
