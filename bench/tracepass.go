package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"merlin"
)

// tracedPass is the per-layer pass of a run: campaigns alternate between
// the traced path (spans recorded around every call into a layer) and the
// plain path the end-to-end pass measures, then the layer probes run on a
// library campaign of the same spec. Spans go to trace-<workload>.json in
// o.outDir when the pass ends.
func tracedPass(ctx context.Context, w *workload, o runOpts, e env, orc *oracle, log io.Writer) (result, error) {
	tr := newTracer()
	var traced, plain []opResult
	budget := time.Duration(0.3 * o.seconds * float64(time.Second))
	for p, start := 0, time.Now(); ; p++ {
		order := []*tracer{tr, nil} // alternate which path goes first
		if p%2 == 1 {
			order = []*tracer{nil, tr}
		}
		if o.smoke {
			order = []*tracer{tr}
		}
		for _, t := range order {
			runtime.GC()
			if res := verified(ctx, e, orc, p, t); t != nil {
				traced = append(traced, res)
			} else {
				plain = append(plain, res)
			}
		}
		if o.smoke || (p >= 1 && time.Since(start) >= budget) {
			break
		}
	}

	vals := map[string]float64{}
	ops := append(append([]opResult(nil), traced...), plain...)
	failed := countFailed(ops, log)
	var reports []*merlin.Report
	var avfErr []float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		if op.report != nil {
			reports = append(reports, op.report)
		}
		if op.baseline != nil {
			avfErr = append(avfErr, 100*math.Abs(op.report.AVF-op.baseline.AVF))
		}
	}
	vals["failed_share"] = float64(failed) / float64(len(ops))
	vals["avf_abs_err_pp"] = median(avfErr)
	initial, injected := 0, 0
	for _, r := range reports {
		initial += r.InitialFaults
		injected += r.Injected
	}
	vals["injection_reduction_x"] = ratio(float64(initial), float64(injected))

	// session: phase spans, and what the campaign span does not account
	// for. Phase spans are contiguous, so self time is the recording gaps.
	self := selfTimes(tr.spans)
	var campaignSelf []time.Duration
	for _, s := range tr.spans {
		if s.Parent < 0 {
			campaignSelf = append(campaignSelf, self[s.ID])
		}
	}
	vals["session.start_ms"] = ms(medianOf(tr.named("start")))
	vals["session.preprocess_s"] = medianOf(tr.named("preprocess")).Seconds()
	vals["session.reduce_s"] = medianOf(tr.named("reduce")).Seconds()
	vals["session.inject_s"] = medianOf(tr.named("inject")).Seconds()
	vals["session.self_s"] = medianOf(campaignSelf).Seconds()
	tracedWall, plainWall := medianOf(walls(traced)), medianOf(walls(plain))
	vals["trace.overhead_pct"] = 100 * ratio(float64(tracedWall-plainWall), float64(plainWall))
	describe(log, "campaign span (traced)", walls(traced))

	serverMetrics(ops, vals)
	dir, err := os.MkdirTemp(o.outDir, "probe-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	probeRep, err := layerProbes(ctx, w, o, dir, vals)
	if err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	if w.Kind == service {
		// Reports that crossed the coordinator's merge carry no simulation
		// counters; the library campaign of the same spec stands in.
		reports = []*merlin.Report{probeRep}
		if err := serviceProbes(ctx, w, o, orc, ops, vals); err != nil {
			return result{}, err
		}
	}
	campaignMetrics(reports, vals)

	vals["store.cache_hits"], vals["store.snapshot_hits"] = e.counters(ctx)
	vals["fleet.artifact_fetches"] = 0
	if he, ok := e.(*httpEnv); ok {
		vals["fleet.artifact_fetches"] = float64(he.artifactFetches.Load())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	vals["proc.peak_rss_mb"] = peakRSSMB()
	vals["proc.num_gc"] = float64(m.NumGC)
	vals["proc.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
	vals["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	if err := tr.write(o.outDir, w.Name, o.seed); err != nil {
		return result{}, err
	}
	return emit(perLayer, vals, len(ops), failed, log)
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func walls(ops []opResult) []time.Duration {
	var out []time.Duration
	for _, op := range ops {
		if op.err == nil {
			out = append(out, op.wall)
		}
	}
	return out
}

// campaignMetrics reports the injection-phase counters of the campaign
// reports (medians over the pass's campaigns).
func campaignMetrics(reports []*merlin.Report, vals map[string]float64) {
	col := func(f func(r *merlin.Report) float64) float64 {
		xs := make([]float64, len(reports))
		for i, r := range reports {
			xs[i] = f(r)
		}
		return median(xs)
	}
	threads := float64(runtime.GOMAXPROCS(0))
	vals["campaign.inject_wall_s"] = col(func(r *merlin.Report) float64 { return r.Wall.Seconds() })
	vals["campaign.inject_serial_s"] = col(func(r *merlin.Report) float64 { return r.Serial.Seconds() })
	vals["campaign.parallel_eff"] = col(func(r *merlin.Report) float64 {
		return ratio(r.Serial.Seconds(), r.Wall.Seconds()*threads)
	})
	vals["campaign.sim_cycles"] = col(func(r *merlin.Report) float64 { return float64(r.SimCycles) })
	vals["campaign.cycles_per_s"] = col(func(r *merlin.Report) float64 { return r.CyclesPerSec })
	vals["campaign.resim_share"] = col(func(r *merlin.Report) float64 {
		return ratio(float64(r.SimCycles), float64(r.Injected)*float64(r.GoldenCycles))
	})
	vals["campaign.clones"] = col(func(r *merlin.Report) float64 { return float64(r.Clones) })
	vals["campaign.clone_time_ms"] = col(func(r *merlin.Report) float64 { return ms(r.CloneTime) })
}

// serverMetrics reports what the HTTP client saw (zeros for a library
// workload, which has no client).
func serverMetrics(ops []opResult, vals map[string]float64) {
	var submit, first, get, single, batch []time.Duration
	var events, bytes, shards, requeues []float64
	shed := 0
	for _, op := range ops {
		if op.shed {
			shed++
		}
		if op.http == nil || op.err != nil {
			continue
		}
		h := op.http
		submit, first, get = append(submit, h.submit), append(first, h.firstEvent), append(get, h.reportGet)
		events, bytes = append(events, float64(h.events)), append(bytes, float64(h.eventBytes))
		shards, requeues = append(shards, float64(h.shards)), append(requeues, float64(h.requeues))
		if h.batch {
			batch = append(batch, op.wall)
		} else {
			single = append(single, op.wall)
		}
	}
	vals["server.submit_ms"] = ms(medianOf(submit))
	vals["server.first_event_ms"] = ms(medianOf(first))
	vals["server.report_get_ms"] = ms(medianOf(get))
	vals["server.events"] = median(events)
	vals["server.event_kb"] = median(bytes) / 1e3
	vals["server.single_wall_ms"] = ms(medianOf(single))
	vals["server.batch_wall_ms"] = ms(medianOf(batch))
	vals["server.shed_429"] = float64(shed)
	vals["fleet.shards"] = median(shards)
	vals["fleet.requeues"] = median(requeues)
	vals["server.overhead_ms"], vals["fleet.local_1t_wall_s"], vals["fleet.scaleout_x"] = 0, 0, 0
}

// serviceProbes measures what the service adds to the same campaign run
// without it. A daemon's single campaigns are compared with library
// sessions given the same warm artifact and snapshot caches
// (server.overhead_ms); a fleet's campaigns with the same submissions to a
// coordinator nobody joined, which injects them in-process on one thread
// (fleet.local_1t_wall_s, and fleet.scaleout_x = that / the fleet's wall).
func serviceProbes(ctx context.Context, w *workload, o runOpts, orc *oracle, ops []opResult, vals map[string]float64) error {
	var single []time.Duration
	for _, op := range ops {
		if op.err == nil && !op.http.batch {
			single = append(single, op.wall)
		}
	}
	if w.Workers == 0 {
		dir, err := os.MkdirTemp(o.outDir, "overhead-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cache, err := merlin.OpenCache(dir)
		if err != nil {
			return err
		}
		snaps := merlin.NewSnapshotCache(0)
		var lib []time.Duration
		for i := 0; i <= o.times(2*probeRepeats); i++ {
			opts := append(w.options(o, 0), merlin.WithWorkers(1), merlin.WithCache(cache), merlin.WithSnapshotCache(snaps))
			t0 := time.Now()
			s, err := merlin.Start(ctx, w.Workload, opts...)
			if err != nil {
				return err
			}
			if _, err := s.Run(ctx); err != nil {
				return err
			}
			if i > 0 { // the first fills both caches
				lib = append(lib, time.Since(t0))
			}
		}
		vals["server.overhead_ms"] = ms(medianOf(single) - medianOf(lib))
		return nil
	}

	solo := *w
	solo.Workers = 0
	e, err := setUp(ctx, &solo, o)
	if err != nil {
		return err
	}
	defer e.close()
	var local []time.Duration
	for i := 0; i <= o.times(2); i++ {
		res := verified(ctx, e, orc, i, nil)
		if res.err != nil {
			return fmt.Errorf("coordinator without workers: %w", res.err)
		}
		if i > 0 { // the first warms its caches
			local = append(local, res.wall)
		}
	}
	vals["fleet.local_1t_wall_s"] = medianOf(local).Seconds()
	vals["fleet.scaleout_x"] = ratio(medianOf(local).Seconds(), medianOf(single).Seconds())
	return nil
}
