package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"merlin"
	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/guestflow"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
	"merlin/internal/sampling"
	"merlin/internal/store"
)

// Probe sizes. Each probe is a handful of direct, single-threaded calls
// into one layer's public entry point on the workload's own Artifacts;
// the counts keep the whole probe phase to a few seconds.
const (
	probeFaults  = 60000 // the paper's fault-list size, for the *60k probes
	probeClones  = 200
	probeReps    = 48 // representatives injected one by one for fault_ms_*
	probePairs   = 2  // with/without sessions for prune_net_ms
	probeRepeats = 3  // everything that takes tens of milliseconds or more

	probeSimTime = 300 * time.Millisecond // untraced runs repeat for at least this long
)

// times is how often a probe asked to run n times runs: once in the smoke
// test.
func (o runOpts) times(n int) int {
	if o.smoke {
		return 1
	}
	return n
}

// repeat times fn o.times(n) times.
func repeat(o runOpts, n int, fn func()) []time.Duration {
	ds := make([]time.Duration, o.times(n))
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return ds
}

func medianOf(ds []time.Duration) time.Duration {
	return time.Duration(median(inSeconds(ds)) * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerProbes runs one library campaign of the workload's spec (fault list
// 0, no caches), then times each layer's entry points on its Artifacts,
// filling vals. It returns the campaign's report.
func layerProbes(ctx context.Context, w *workload, o runOpts, dir string, vals map[string]float64) (*merlin.Report, error) {
	s, err := merlin.Start(ctx, w.Workload, w.options(o, 0)...)
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	a := s.Artifacts()
	r, st, golden := a.Runner, a.Config.Structure, &a.Golden.Result
	cycles := golden.Cycles
	seed := subSeed(o.seed, 0)

	// cpu: untraced and traced simulation speed, allocations of one run,
	// and the modelled design's own statistics (which must never move).
	var mallocs uint64
	var stats cpu.Stats
	var runs []time.Duration
	for total := time.Duration(0); len(runs) < o.times(probeRepeats) || (total < probeSimTime && !o.smoke); total += runs[len(runs)-1] {
		c := r.NewCore()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := c.Run(r.GoldenBudget)
		runs = append(runs, time.Since(t0))
		runtime.ReadMemStats(&m1)
		mallocs, stats = m1.Mallocs-m0.Mallocs, res.Stats
		if res.Cycles != cycles {
			return nil, fmt.Errorf("untraced run took %d cycles, golden run %d", res.Cycles, cycles)
		}
	}
	vals["cpu.sim_cycles_per_s"] = float64(cycles) / medianOf(runs).Seconds()
	vals["cpu.run_allocs"] = float64(mallocs)
	vals["cpu.golden_cycles"] = float64(cycles)
	vals["cpu.ipc"] = float64(stats.CommittedInsts) / float64(cycles)
	vals["cpu.l1d_miss_share"] = float64(stats.L1DStats.Misses) / float64(stats.L1DStats.Hits+stats.L1DStats.Misses)
	traced := repeat(o, 2, func() {
		if _, gerr := r.RunGolden(st); gerr != nil {
			err = gerr
		}
	})
	if err != nil {
		return nil, err
	}
	vals["cpu.traced_cycles_per_s"] = float64(cycles) / medianOf(traced).Seconds()

	// Clone cost on a mid-run machine state, and the early-exit check on
	// its worst case (equal states compare everything).
	mid := r.NewCore()
	for mid.Cycle() < cycles/2 && mid.Halted() == cpu.Running {
		mid.Step()
	}
	frozen := mid.Clone()
	pool := cpu.NewClonePool(0)
	pool.Release(frozen.Clone())
	var fresh *cpu.Core
	vals["cpu.clone_fresh_us"] = us(medianOf(repeat(o, probeClones, func() { fresh = frozen.Clone() })))
	vals["cpu.clone_pooled_us"] = us(medianOf(repeat(o, probeClones, func() { pool.Release(pool.Clone(frozen)) })))
	equal := true
	vals["cpu.masked_equiv_us"] = us(medianOf(repeat(o, probeClones, func() { equal = equal && cpu.MaskedEquivalent(fresh, frozen) })))
	if !equal {
		return nil, fmt.Errorf("a clone is not masked-equivalent to its source")
	}

	// campaign: the checkpoint ladder, then representatives injected one
	// at a time from it.
	var ladder *campaign.CheckpointSet
	vals["campaign.ladder_build_s"] = medianOf(repeat(o, probeRepeats, func() {
		ladder = r.BuildCheckpoints(campaign.ForkSyncPoints, cycles)
	})).Seconds()
	vals["mem.ladder_mb"] = float64(ladder.MemBytes()) / 1e6
	reduced := a.Red.Reduced()
	n := min(o.times(probeReps), len(reduced))
	perFault := make([]float64, n)
	for k := range perFault { // evenly strided over the reduced list
		f := reduced[k*len(reduced)/n]
		t0 := time.Now()
		r.RunFaultFrom(ladder, f, golden)
		perFault[k] = ms(time.Since(t0))
	}
	vals["campaign.fault_ms_p50"] = quantile(perFault, 0.5)
	vals["campaign.fault_ms_p90"] = quantile(perFault, 0.9)

	// lifetime, sampling, reduction on the golden run's event log.
	log := a.Golden.Tracer.Log(st)
	core := r.NewCore()
	entries, entryBits := core.StructureEntries(st), core.StructureEntryBits(st)
	var built *lifetime.Analysis
	vals["lifetime.build_s"] = medianOf(repeat(o, probeRepeats, func() {
		built = lifetime.Build(log, st, entries, entryBits/8, cycles)
	})).Seconds()
	vals["lifetime.intervals"] = float64(len(built.Intervals))
	vals["sampling.generate_ms"] = ms(medianOf(repeat(o, probeRepeats, func() {
		sampling.Generate(st, entries, entryBits, cycles, len(a.Faults), seed)
	})))
	faults60k := sampling.Generate(st, entries, entryBits, cycles, probeFaults, seed)
	vals["lifetime.find_ns"] = float64(medianOf(repeat(o, probeRepeats, func() {
		for _, f := range faults60k {
			a.Analysis.Find(f.Entry, f.Byte(), f.Cycle)
		}
	}))) / probeFaults
	vals["reduction.reduce_ms"] = ms(medianOf(repeat(o, probeRepeats, func() {
		reduction.Reduce(a.Analysis, a.Faults, reduction.DefaultOptions())
	})))
	vals["reduction.reduce60k_ms"] = ms(medianOf(repeat(o, probeRepeats, func() {
		reduction.Reduce(a.Analysis, faults60k, reduction.DefaultOptions())
	})))
	vals["reduction.ace_masked"] = float64(a.Red.ACEMasked)
	vals["reduction.groups"] = float64(len(a.Red.Groups))
	vals["reduction.injected"] = float64(rep.Injected)

	// guestflow: the static analysis, its prune pass at 60K faults, and
	// what WithStaticPrune is worth to Session.Reduce in milliseconds. Only
	// register-file campaigns can be pruned.
	var g *guestflow.Analysis
	vals["guestflow.analyze_ms"] = ms(medianOf(repeat(o, probeRepeats, func() { g = guestflow.Analyze(r.Prog) })))
	vals["guestflow.prune60k_ms"], vals["guestflow.pruned60k"], vals["guestflow.prune_net_ms"] = 0, 0, 0
	if st == merlin.RF {
		var ps guestflow.PruneStats
		vals["guestflow.prune60k_ms"] = ms(medianOf(repeat(o, probeRepeats, func() { _, ps = guestflow.PruneRF(g, log, faults60k) })))
		vals["guestflow.pruned60k"] = float64(ps.Pruned())
		net, err := pruneNet(ctx, w, o, filepath.Join(dir, "prune-cache"))
		if err != nil {
			return nil, err
		}
		vals["guestflow.prune_net_ms"] = ms(net)
	}

	// store: the artifact this campaign's Preprocess would cache, written
	// and read back, and one durable registry record.
	if err := storeProbes(o, a, rep, dir, vals); err != nil {
		return nil, err
	}
	return rep, nil
}

// pruneNet is Session.Reduce with WithStaticPrune minus without, at 60K
// faults on a warm artifact cache (so both sessions skip the golden run):
// positive means the option costs time.
func pruneNet(ctx context.Context, w *workload, o runOpts, cacheDir string) (time.Duration, error) {
	cache, err := merlin.OpenCache(cacheDir)
	if err != nil {
		return 0, err
	}
	reduce := func(extra ...merlin.Option) (time.Duration, error) {
		opts := append(w.options(o, 0), merlin.WithFaults(probeFaults), merlin.WithCache(cache))
		s, err := merlin.Start(ctx, w.Workload, append(opts, extra...)...)
		if err != nil {
			return 0, err
		}
		if err := s.Preprocess(ctx); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = s.Reduce()
		return time.Since(t0), err
	}
	if _, err := reduce(); err != nil { // fills the cache
		return 0, err
	}
	var with, without []time.Duration
	for i := 0; i < o.times(probePairs); i++ {
		d, err := reduce()
		if err != nil {
			return 0, err
		}
		without = append(without, d)
		if d, err = reduce(merlin.WithStaticPrune()); err != nil {
			return 0, err
		}
		with = append(with, d)
	}
	return medianOf(with) - medianOf(without), nil
}

func storeProbes(o runOpts, a *merlin.Artifacts, rep *merlin.Report, dir string, vals map[string]float64) error {
	r, st := a.Runner, a.Config.Structure
	cycles := a.Golden.Result.Cycles
	cache, err := store.Open(filepath.Join(dir, "probe-cache"))
	if err != nil {
		return err
	}
	key := store.NewKey(a.Config.Workload, a.Config.CPU, r.GoldenBudget, st)
	art := &store.Artifact{
		Workload: a.Config.Workload,
		Structures: []store.StructureTrace{{
			Structure: st, Entries: a.Analysis.Entries, EntryBytes: a.Analysis.EntryBytes,
			Events: a.Golden.Tracer.Log(st).Events, Intervals: a.Analysis.Intervals,
		}},
		Golden:           a.Golden.Result,
		Branches:         a.Golden.Tracer.Branches,
		CheckpointCycles: campaign.CheckpointSchedule(campaign.ForkSyncPoints, cycles),
	}
	vals["store.artifact_put_s"] = medianOf(repeat(o, probeRepeats, func() {
		if perr := cache.Put(key, art); perr != nil {
			err = perr
		}
	})).Seconds()
	if err != nil {
		return err
	}
	hit := true
	vals["store.artifact_get_s"] = medianOf(repeat(o, probeRepeats, func() {
		_, ok := cache.Get(key)
		hit = hit && ok
	})).Seconds()
	if !hit {
		return fmt.Errorf("artifact written by Put was not served by Get")
	}
	vals["store.artifact_mb"] = float64(cache.Stats().Bytes) / 1e6

	reg, err := store.OpenRegistry(filepath.Join(dir, "probe-registry"))
	if err != nil {
		return err
	}
	report, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	outcomes := make(map[int]string, len(rep.RepOutcomes))
	for i, oc := range rep.RepOutcomes {
		outcomes[i] = oc.String()
	}
	rec := store.CampaignRecord{
		ID: "c00000001", Kind: "campaign", Status: "done",
		Request: []byte(`{}`), Report: report, Outcomes: outcomes,
	}
	vals["store.registry_put_ms"] = ms(medianOf(repeat(o, 20, func() {
		if perr := reg.Put(rec); perr != nil {
			err = perr
		}
	})))
	if err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(dir, "probe-registry"))
}
