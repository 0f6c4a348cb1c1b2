//go:build race

// Package raceflag reports whether the binary was built with the race
// detector, so allocation-budget tests can skip themselves there: -race
// makes sync.Pool drop puts deliberately and instruments allocation, so
// pooled paths allocate by design.
package raceflag

// Enabled is true when built with -race.
const Enabled = true
