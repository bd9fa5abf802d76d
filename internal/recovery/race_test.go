//go:build race

package recovery

const raceEnabled = true
