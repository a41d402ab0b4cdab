//go:build race

package engine

// raceEnabled reports that the race detector instruments this build; its
// instrumentation disables compiler optimisations the allocation ceilings
// count on (append of a make no longer extends in place).
const raceEnabled = true
