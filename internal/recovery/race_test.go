//go:build race

package recovery_test

const raceEnabled = true
