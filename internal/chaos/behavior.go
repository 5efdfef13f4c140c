package chaos

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"merlin/internal/fleet"
)

// Behavior perturbs a worker's shard execution: the worker-side chaos
// injection point. Crash and Stall are drawn once per shard (with a
// uniformly random trigger outcome), Duplicate per outcome, Straggle and
// MismatchDuplicate once per shard.
//
// Crash, Stall and Straggle are sub-lethal: the dispatcher's watchdog,
// requeue and circuit-breaker machinery must absorb them with a
// bit-identical merged report. MismatchDuplicate is lethal by design —
// a Byzantine worker contradicting its own classification — and the
// campaign must fail loudly, never silently prefer either answer.
type Behavior struct {
	R *Rand

	// Crash aborts the shard stream (connection reset, no done marker)
	// after a random prefix of outcomes.
	Crash float64
	// Stall stops emitting at a random outcome while the connection
	// stays open and the worker's heartbeat loop keeps it looking alive
	// — the livelock only a progress watchdog breaks.
	Stall float64
	// StallFor bounds how long a stalled handler lingers after the
	// trigger before aborting on its own (0 = 30s); the watchdog is
	// expected to fire far earlier.
	StallFor time.Duration
	// Straggle delays every outcome of the shard by a random lag up to
	// MaxLag — the slow-but-correct worker hedging exists for.
	Straggle float64
	MaxLag   time.Duration
	// Duplicate re-emits an outcome line verbatim: benign, the ledger
	// dedups it.
	Duplicate float64
	// MismatchDuplicate re-emits one rep with a different class.
	MismatchDuplicate float64
}

// Wrap returns run perturbed by the receiver's fault distribution.
func (b *Behavior) Wrap(run fleet.ShardRunFunc) fleet.ShardRunFunc {
	return func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) (json.RawMessage, error) {
		n := len(job.Reps)
		if n == 0 {
			return run(ctx, job, emit)
		}
		crashAt, stallAt, mismatchAt := -1, -1, -1
		if b.R.Chance(b.Crash) {
			crashAt = b.R.Intn(n)
		}
		if b.R.Chance(b.Stall) {
			stallAt = b.R.Intn(n)
		}
		if b.R.Chance(b.MismatchDuplicate) {
			mismatchAt = b.R.Intn(n)
		}
		var lag time.Duration
		if b.MaxLag > 0 && b.R.Chance(b.Straggle) {
			lag = time.Duration(b.R.Intn(int(b.MaxLag))) + 1
		}

		// The wrapped emit runs on the shard's own injection goroutines,
		// where a panic would kill the process instead of the stream. So
		// the triggers only cancel the shard's context and stop
		// forwarding; the handler goroutine (below, after run returns)
		// does the actual aborting.
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var (
			mu      sync.Mutex
			emitted int
			fate    string // "", "crash", "stall"
		)
		wrapped := func(o fleet.Outcome) {
			mu.Lock()
			i := emitted
			emitted++
			if fate != "" {
				mu.Unlock() // a triggered shard emits nothing further
				return
			}
			if i == crashAt {
				fate = "crash"
				mu.Unlock()
				cancel()
				return
			}
			if i == stallAt {
				fate = "stall"
				mu.Unlock()
				cancel()
				return
			}
			mu.Unlock()
			if lag > 0 {
				sleepCtx(ctx, lag)
			}
			emit(o)
			if b.R.Chance(b.Duplicate) {
				emit(o)
			}
			if i == mismatchAt {
				forged := o
				forged.Outcome = otherClass(o.Outcome)
				emit(forged)
			}
		}

		work, err := run(cctx, job, wrapped)
		mu.Lock()
		f := fate
		mu.Unlock()
		switch f {
		case "crash":
			// Handler goroutine: net/http turns this into a connection
			// abort — a broken stream with no done marker.
			panic(http.ErrAbortHandler)
		case "stall":
			// Hold the stream open, emitting nothing, until the
			// coordinator's watchdog closes it (cancelling ctx) or the
			// safety bound elapses; then abort without a done marker.
			stallFor := b.StallFor
			if stallFor == 0 {
				stallFor = 30 * time.Second
			}
			sleepCtx(ctx, stallFor)
			panic(http.ErrAbortHandler)
		}
		return work, err
	}
}

// otherClass returns a fault-effect class different from c: the forged
// half of a mismatched duplicate.
func otherClass(c string) string {
	if c == "Masked" {
		return "SDC"
	}
	return "Masked"
}

// sleepCtx sleeps for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
