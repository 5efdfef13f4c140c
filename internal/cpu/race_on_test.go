//go:build race

package cpu_test

const raceEnabled = true
