//go:build race

package main

// raceDetector reports that the test binary was built with -race, under
// which the simulated legs run an order of magnitude slower.
const raceDetector = true
