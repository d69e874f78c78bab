//go:build race

package race

// Enabled is true when the binary is built with -race.
const Enabled = true
