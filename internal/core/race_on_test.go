//go:build race

package core

// raceDetector reports that the test binary was built with -race, which
// makes allocation counts meaningless.
const raceDetector = true
