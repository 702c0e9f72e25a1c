//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build;
// the allocation guard is meaningless under its overhead (sync.Pool
// drops entries at random, every allocation is padded).
const raceEnabled = false
