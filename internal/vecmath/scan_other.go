//go:build !amd64

package vecmath

// scanBlocks scores no rows off amd64: ScanDot is the per-row Dot loop.
func scanBlocks(probe, rows, out []float32) int { return 0 }
