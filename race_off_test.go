//go:build !race

package merlin

const raceEnabled = false
