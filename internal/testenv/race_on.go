//go:build race

package testenv

// RaceEnabled reports that the race detector instruments this build. Its
// instrumentation allocates, and disables compiler optimisations such as
// extending an append of a make in place, so an allocation ceiling skips
// under it.
const RaceEnabled = true
