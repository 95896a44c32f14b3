//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, whose slowdown puts the 256-thread DetectAll golden cells
// past the CI race-stage timeout.
const raceEnabled = true
