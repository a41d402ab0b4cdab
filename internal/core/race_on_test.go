//go:build race

package core

// raceEnabled reports that the race detector instruments this build, whose
// instrumentation allocates where the allocation ceilings count on none.
const raceEnabled = true
