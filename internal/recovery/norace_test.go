//go:build !race

package recovery

// raceEnabled reports a -race build (race_test.go): the exhaustive cut
// sweep thins out under the detector, and a buffer growth allocates twice.
const raceEnabled = false
