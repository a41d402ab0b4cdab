//go:build race

package transport

// raceEnabled reports that the race detector instruments this build; its
// instrumentation allocates where the allocation checks count on none.
const raceEnabled = true
