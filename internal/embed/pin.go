package embed

// Pin returns a model with m's architecture and weights whose weights
// live in one read-only anonymous mapping outside the Go heap, and the
// func that releases it. The garbage collector neither scans pinned
// weights nor counts them toward its heap goal, so a serving process
// whose model never changes stops paying GC headroom for it; a write
// into them faults. m itself is left as it was. LoadPinned makes the
// same model from a file without a heap copy.
//
// The pinned model must not be used once release has run: a use after
// it faults loudly. On Linux release revokes all access before it frees
// the pages and keeps the range reserved, so such a use can never read
// memory something else now holds; elsewhere it unmaps the range.
// Release is idempotent. Where the mapping cannot be made (or a
// platform has none), Pin returns m and a no-op.
func Pin(m *Model) (*Model, func()) {
	p, release, err := pinned(m.Cfg, func(w []float32) error {
		m.CopyWeights(w)
		return nil
	})
	if p == nil || err != nil {
		return m, func() {}
	}
	return p, release
}
