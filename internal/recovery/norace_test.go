//go:build !race

package recovery_test

// raceEnabled reports a -race build (race_test.go): the exhaustive cut
// sweep thins out under the detector.
const raceEnabled = false
