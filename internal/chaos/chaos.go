// Package chaos is the fault-plan engine for the campaign fleet: seeded,
// deterministic-by-construction fault injection into the injector itself.
// MeRLiN's statistical guarantees only hold if huge campaigns complete,
// and the project's determinism invariant gives the perfect oracle — under
// any sub-lethal chaos schedule the merged report must be bit-identical to
// the undisturbed run. This package supplies the schedule: a splitmix64
// stream of fault draws feeding three pluggable injection points —
//
//   - Transport: a chaos http.RoundTripper that drops, delays and
//     truncates responses, breaks NDJSON streams mid-line, injects 5xx,
//     and stalls response bodies without closing them;
//   - FS: a chaos store.FS that tears writes, fails renames, reports
//     ENOSPC and flips payload bytes on the way to disk;
//   - Behavior: worker-side perturbations of a fleet.ShardRunFunc —
//     crash mid-shard, stall while the heartbeat loop keeps the worker
//     looking alive, straggle, and emit duplicate or mismatched-duplicate
//     outcomes.
//
// All randomness is drawn from the seeded Rand below; the package never
// touches global math/rand or the wall clock for decisions (delays and
// stalls use timers, never time.Now), so merlinvet's determinism
// analyzers hold over it like any other package. Note the scope of the
// guarantee: the *draws* are a deterministic function of the seed, but
// goroutine interleaving decides which request meets which draw, so a
// chaos schedule is reproducible in distribution, not placement — which
// is exactly what the bit-identity oracle requires, and why it is the
// oracle rather than any property of the chaos itself.
package chaos

import "sync"

// Rand is a seeded splitmix64 stream, safe for concurrent draws. It is
// deliberately tiny: the fleet's chaos decisions need uniform integers,
// coin flips and bounded durations, nothing more.
type Rand struct {
	mu    sync.Mutex
	state uint64
}

// NewRand returns a stream seeded with seed. Equal seeds yield equal
// draw sequences (under equal draw orders).
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next draw (splitmix64: Steele et al., "Fast
// splittable pseudorandom number generators").
func (r *Rand) Uint64() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state += 0x9e37_79b9_7f4a_7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58_476d_1ce4_e5b9
	z = (z ^ (z >> 27)) * 0x94d0_49bb_1331_11eb
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n); n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Chance reports true with probability p (clamped to [0, 1]).
func (r *Rand) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.Uint64()>>11)/(1<<53) < p
}

// Derive returns a child seed for stream i: scenario i of a suite gets
// its own independent Rand without the suite consuming draws from a
// shared one in a concurrency-dependent order.
func Derive(seed uint64, i int) uint64 {
	r := Rand{state: seed}
	var s uint64
	for k := 0; k <= i; k++ {
		s = r.Uint64()
	}
	return s
}
