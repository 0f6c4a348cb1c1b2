//go:build !race

package raceflag

// Enabled is true when built with -race.
const Enabled = false
