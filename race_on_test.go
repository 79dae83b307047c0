//go:build race

package raven

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates on its own; the allocation
// floors are skipped so `make race` stays a pure correctness gate.
const raceEnabled = true
