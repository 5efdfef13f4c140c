package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// setUps is how many times an untraced run brings its workload up: the
// reported setup_s is the median, which a single slow bring-up cannot move.
const setUps = 3

// warmUps lists the campaigns one set-up runs before measuring: one per
// kind of operation, so every cache the measured campaigns hit is warm.
func (w *workload) warmUps() []int {
	if w.BatchEvery > 0 {
		return []int{0, w.BatchEvery - 1} // a single campaign and a batch
	}
	return []int{0}
}

// pinReferences computes, for a service workload, the library reference of
// every fault list — what a daemon or fleet report must equal — and hands
// it to the oracle. Where the oracle already holds a pin (seed 1), the
// reference must itself equal it.
func pinReferences(ctx context.Context, w *workload, o runOpts, orc *oracle) error {
	if w.Kind == library {
		return nil
	}
	for list := 0; list < w.Lists; list++ {
		ref, err := w.reference(ctx, o, list)
		if err != nil {
			return fmt.Errorf("library reference, list %d: %w", list, err)
		}
		if err := orc.check(list, ref); err != nil {
			return fmt.Errorf("library reference: %w", err)
		}
	}
	return nil
}

// countFailed logs the failed campaigns among ops and returns how many.
func countFailed(ops []opResult, log io.Writer) int {
	failed := 0
	for _, op := range ops {
		if op.err != nil {
			failed++
			fmt.Fprintf(log, "FAILED campaign on list %d: %v\n", op.list, op.err)
		}
	}
	return failed
}

// verified runs campaign i and checks its report against the oracle.
func verified(ctx context.Context, e env, orc *oracle, i int, tr *tracer) opResult {
	res := e.op(ctx, i, tr)
	if res.err == nil {
		res.err = orc.check(res.list, res.pins)
	}
	return res
}

// run measures workload w once: set-up, then either the untraced
// end-to-end pass or the traced per-layer pass. It writes human-readable
// lines to log and returns the result the caller prints last.
func run(ctx context.Context, w *workload, o runOpts, log io.Writer) (result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	orc := newOracle(w.Lists)
	if o.seed == 1 && !o.smoke {
		exp, err := loadExpected()
		if err != nil {
			return result{}, err
		}
		want, ok := exp[w.Name]
		if !ok {
			return result{}, fmt.Errorf("bench/expected.json has no pins for %s; record them with -pin", w.Name)
		}
		if err := orc.fix(want); err != nil {
			return result{}, fmt.Errorf("bench/expected.json, %s: %w", w.Name, err)
		}
	}

	// The once-only part of set-up.
	begin := time.Now()
	if err := pinReferences(ctx, w, o, orc); err != nil {
		return result{}, err
	}
	refTime := time.Since(begin)

	// The repeated part: bring the workload up and run its warm-up
	// campaigns. The last instance is the one measured.
	n := setUps
	if o.trace || o.smoke {
		n = 1
	}
	var e env
	var setupS []float64
	for r := 0; r < n; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(ctx, w, o); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		for _, i := range w.warmUps() {
			if res := verified(ctx, e, orc, i, nil); res.err != nil {
				e.close()
				return result{}, fmt.Errorf("warm-up campaign %d: %w", i, res.err)
			}
		}
		setupS = append(setupS, (refTime + time.Since(t0)).Seconds())
	}
	defer e.close()

	if o.trace {
		return tracedPass(ctx, w, o, e, orc, log)
	}

	ops, regions := measure(ctx, w, o, e, orc)
	failed := countFailed(ops, log)
	vals := map[string]float64{"setup_s": median(setupS), "campaign_wall_s": median(inSeconds(walls(ops)))}
	if w.Clients == 1 {
		// One region per campaign: every figure is a median over
		// campaigns, so a stalled campaign or an unusually expensive
		// fault list moves none of them.
		var rate, cpu, alloc []float64
		for i, op := range ops {
			if op.err == nil {
				rate = append(rate, float64(op.faults)/op.wall.Seconds())
				cpu = append(cpu, regions[i].cpu.Seconds())
				alloc = append(alloc, float64(regions[i].alloc)/1e6)
			}
		}
		vals["faults_per_s"] = median(rate)
		vals["campaign_cpu_s"] = median(cpu)
		vals["alloc_mb_per_campaign"] = median(alloc)
	} else {
		// Concurrent clients share one region: throughput and cost are
		// totals over the burst.
		faults := 0
		for _, op := range ops {
			if op.err == nil {
				faults += op.faults
			}
		}
		burst := regions[0]
		vals["faults_per_s"] = float64(faults) / burst.wall.Seconds()
		vals["campaign_cpu_s"] = burst.cpu.Seconds() / float64(len(ops))
		vals["alloc_mb_per_campaign"] = float64(burst.alloc) / 1e6 / float64(len(ops))
	}
	var span time.Duration
	for _, r := range regions {
		span += r.wall
	}
	describe(log, "campaign_wall_s", walls(ops))
	fmt.Fprintf(log, "%d campaigns in %.2fs measured (%d clients, GOMAXPROCS %d of %d CPUs), set-ups %.3v s\n",
		len(ops), span.Seconds(), w.Clients, runtime.GOMAXPROCS(0), runtime.NumCPU(), setupS)
	return emit(endToEnd, vals, len(ops), failed, log)
}

// measure is the untraced closed loop: campaigns run back to back for
// o.seconds (at least one), each client submitting its next only after its
// previous one finished. Sequential workloads meter every campaign as its
// own region, with a collection in between; concurrent clients share one
// region covering the whole burst.
func measure(ctx context.Context, w *workload, o runOpts, e env, orc *oracle) ([]opResult, []region) {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var ops []opResult
	var regions []region
	if w.Clients == 1 {
		for i := 0; i == 0 || (time.Now().Before(deadline) && !o.smoke); i++ {
			regions = append(regions, metered(func() { ops = append(ops, verified(ctx, e, orc, i, nil)) }))
		}
		return ops, regions
	}
	var mu sync.Mutex // guards ops and the oracle's first-report pinning
	regions = append(regions, metered(func() {
		var wg sync.WaitGroup
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			// Clients start half a cycle apart so they do not submit
			// the same kind of operation in lockstep.
			go func(first int) {
				defer wg.Done()
				for i := first; i == first || (time.Now().Before(deadline) && !o.smoke); i++ {
					res := e.op(ctx, i, nil)
					mu.Lock()
					if res.err == nil {
						res.err = orc.check(res.list, res.pins)
					}
					ops = append(ops, res)
					mu.Unlock()
				}
			}(c * w.Lists / w.Clients)
		}
		wg.Wait()
	}))
	return ops, regions
}

// describe prints a timing as median, sample count and the highest
// percentile that has at least ten samples beyond it.
func describe(log io.Writer, name string, ds []time.Duration) {
	xs := inSeconds(ds)
	fmt.Fprintf(log, "%s: median %.4fs over %d samples", name, median(xs), len(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		fmt.Fprintf(log, ", p%v %.4fs", p, quantile(xs, p/100))
	}
	fmt.Fprintln(log)
}

// emit assembles a pass's result from its metric table; a value the pass
// did not produce is a harness bug, not a zero.
func emit(table []metricDef, vals map[string]float64, attempted, failed int, log io.Writer) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range table {
		v, ok := vals[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "%-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if len(vals) != len(table) {
		return result{}, fmt.Errorf("%d values measured for a table of %d metrics", len(vals), len(table))
	}
	return res, nil
}
