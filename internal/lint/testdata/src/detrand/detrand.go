// Package detrand is the fixture for the detrand analyzer: global and
// clock-seeded randomness is flagged, explicit seeded state is not.
package detrand

import (
	crand "crypto/rand" // want "detrand002"
	"math/rand"
	"time"
)

// Global draws from the shared package-level source: nondeterministic.
func Global() int {
	return rand.Intn(10) // want "detrand001"
}

// ValueRef passes a global-source function around: just as bad.
func ValueRef() func() float64 {
	return rand.Float64 // want "detrand001"
}

// Seeded is the sanctioned pattern: randomness flows from an explicit
// seeded source.
func Seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// ClockSeeded builds an explicit source but seeds it from the wall
// clock, so no two runs replay.
func ClockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "detrand003"
}

// Hardware consumes entropy that can never be replayed (flagged at the
// import above).
func Hardware(p []byte) {
	crand.Read(p)
}
