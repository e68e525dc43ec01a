//go:build race

package vm

// raceEnabled reports that the test binary was built with -race, under
// which sync.Pool deliberately drops a share of what is Put.
const raceEnabled = true
