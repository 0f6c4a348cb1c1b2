package vecmath

// scanBlocks scores the leading rows of a ScanDot call in blocks of four
// through the SSE kernel dot4rows and returns how many rows it scored;
// ScanDot scores the rest with Dot. It scores none when d is not a
// positive multiple of 4, so every lane holds exactly one of Dot's four
// accumulators. The horizontal sum is Dot's own s0+s1+s2+s3, so each
// score is bit-identical to Dot's.
func scanBlocks(probe, rows, out []float32) int {
	d := len(probe)
	if d == 0 || d%4 != 0 {
		return 0
	}
	var acc [16]float32
	i := 0
	for ; i+4 <= len(out); i += 4 {
		dot4rows(probe, rows[i*d:(i+4)*d], &acc)
		o := out[i : i+4 : i+4]
		o[0] = acc[0] + acc[1] + acc[2] + acc[3]
		o[1] = acc[4] + acc[5] + acc[6] + acc[7]
		o[2] = acc[8] + acc[9] + acc[10] + acc[11]
		o[3] = acc[12] + acc[13] + acc[14] + acc[15]
	}
	return i
}

// dot4rows is implemented in scan_amd64.s. SSE is baseline on amd64, so
// it needs no CPU-feature check.
//
//go:noescape
func dot4rows(p, rows []float32, acc *[16]float32)
