//go:build !race

package testenv

// RaceEnabled reports that the race detector instruments this build (see
// race_on.go).
const RaceEnabled = false
