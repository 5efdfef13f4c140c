// Package suite is the chaos certification harness behind `merlin chaos`: an
// in-process coordinator+worker fleet subjected to seeded fault
// schedules of seven kinds — dropped and stalled shard streams, crashing
// and straggling workers, duplicated outcomes, torn registry writes — with
// MeRLiN's own determinism as the oracle. Every schedule here is
// sub-lethal by construction: the hardened fleet must absorb it and
// produce a merged report bit-identical (timing counters aside) to a
// chaos-free run of the same request. Lethal schedules (Byzantine
// mismatched outcomes, poison shards) are exercised by the test suite,
// which asserts they fail loudly with their named errors.
//
// Chaos is reproducible in distribution, not in placement: a seed fixes
// every fault draw, but goroutine interleaving decides which shard a
// given draw lands on. Re-running a seed replays the same fault mix and
// intensities, and the oracle must hold either way.
package suite

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"merlin"

	"merlin/internal/chaos"
	"merlin/internal/fleet"
	"merlin/internal/store"
)

// chaosCampaignBody is the fixed campaign every scenario runs: small
// enough to finish in ~a second locally, rich enough to shard across
// workers.
const chaosCampaignBody = `{"workload":"sha","structure":"RF","faults":300,"seed":9,"strategy":"forked"}`

// chaosKinds are the scenario schedules, cycled over the scenario index.
var chaosKinds = []string{
	"worker-stall",
	"mid-stream-crash",
	"torn-registry",
	"http-5xx",
	"duplicate-outcomes",
	"straggler",
	"mixed",
}

// Options configures Run.
type Options struct {
	// Seed fixes every fault draw; scenario i derives its own independent
	// stream from (Seed, i).
	Seed uint64
	// Scenarios is how many seeded schedules to run (0 = 25), cycling
	// through the schedule kinds.
	Scenarios int
	// Workers is the fleet size per scenario (0 = 2).
	Workers int
	// Logf, when non-nil, receives one line per scenario.
	Logf func(format string, args ...any)
}

// Result summarizes a chaos certification run.
type Result struct {
	Scenarios int            `json:"scenarios"`
	Workers   int            `json:"workers"`
	Requeues  int            `json:"requeues"`
	Faults    int            `json:"faults"` // transport/fs faults injected
	Kinds     map[string]int `json:"kinds"`
	CleanWall time.Duration  `json:"clean_wall"`
	ChaosMean time.Duration  `json:"chaos_mean"`
	SuiteWall time.Duration  `json:"suite_wall"`
}

// chaosSchedule is one scenario's fault configuration across the three
// injection points: the coordinator's shard-stream client, each worker's
// behavior, and the registry filesystem.
type chaosSchedule struct {
	kind     string
	behavior *chaos.Behavior
	fleet    []chaos.Faults // coordinator → worker shard streams
	fs       *chaos.FSFaults
	stall    time.Duration // dispatcher watchdog override (0 = default)
}

// chaosScheduleFor builds the schedule for one scenario kind, drawing
// all its future decisions from r.
func chaosScheduleFor(kind string, r *chaos.Rand) chaosSchedule {
	s := chaosSchedule{kind: kind}
	switch kind {
	case "worker-stall":
		// Half the shards stall mid-stream while the worker keeps
		// heartbeating; only the dispatcher's progress watchdog (tightened
		// here so the run stays fast) gets the reps back.
		s.behavior = &chaos.Behavior{R: r, Stall: 0.5, StallFor: 10 * time.Second}
		s.stall = 1500 * time.Millisecond
	case "mid-stream-crash":
		s.behavior = &chaos.Behavior{R: r, Crash: 0.6}
	case "torn-registry":
		// Checkpoint writes tear or rot at rest; the registry's read-side
		// checksum must quarantine, never wedge or corrupt a resume.
		s.fs = &chaos.FSFaults{TornWrite: 0.25, BitFlip: 0.25}
	case "http-5xx":
		s.fleet = []chaos.Faults{{PathPrefix: "/fleet/run", Drop: 0.25, HTTP500: 0.25}}
	case "duplicate-outcomes":
		s.behavior = &chaos.Behavior{R: r, Duplicate: 0.5}
	case "straggler":
		s.behavior = &chaos.Behavior{R: r, Straggle: 1, MaxLag: 20 * time.Millisecond}
	case "mixed":
		s.behavior = &chaos.Behavior{R: r, Crash: 0.25, Stall: 0.2, StallFor: 10 * time.Second,
			Duplicate: 0.3, Straggle: 0.5, MaxLag: 10 * time.Millisecond}
		s.fleet = []chaos.Faults{{PathPrefix: "/fleet/run", Drop: 0.15, HTTP500: 0.15}}
		s.stall = 1500 * time.Millisecond
	}
	return s
}

// normalizeChaosReport strips the timing and locality counters that
// legitimately differ between runs; everything left must be bit-identical
// by determinism. Mirrors the fleet tests' normalization.
func normalizeChaosReport(r *merlin.Report) merlin.Report {
	n := *r
	n.Wall, n.Work, n.CyclesPerSec, n.CacheHit = 0, merlin.Work{}, 0, false
	return n
}

// Run runs the chaos certification suite: one clean fleet run to
// fix the reference report (and warm the shared artifact cache), then
// opt.Scenarios seeded chaos schedules, each of which must complete and
// match the reference bit-identically. The first scenario that fails —
// campaign error or report divergence — aborts the suite with a
// diagnostic naming the scenario index, kind and seed, which is all a
// reproduction needs.
func Run(ctx context.Context, opt Options) (*Result, error) {
	if opt.Scenarios <= 0 {
		opt.Scenarios = 25
	}
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	root, err := os.MkdirTemp("", "merlin-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cache, err := merlin.OpenCache(filepath.Join(root, "coordinator-cache"))
	if err != nil {
		return nil, err
	}

	suiteStart := time.Now()

	// Clean reference: the same fleet topology with no chaos. Its
	// normalized report is the oracle every chaos run is held to, and its
	// golden run warms the shared coordinator cache.
	cleanStart := time.Now()
	ref, err := runChaosScenario(ctx, cache, root, -1, chaosSchedule{kind: "clean"}, nil, opt.Workers, nil)
	if err != nil {
		return nil, fmt.Errorf("merlin: chaos reference run: %w", err)
	}
	cleanWall := time.Since(cleanStart)
	logf("chaos: clean reference run in %v (%d workers)", cleanWall.Round(time.Millisecond), opt.Workers)

	res := &Result{
		Scenarios: opt.Scenarios,
		Workers:   opt.Workers,
		Kinds:     make(map[string]int),
		CleanWall: cleanWall,
	}
	var chaosTotal time.Duration
	for i := 0; i < opt.Scenarios; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		kind := chaosKinds[i%len(chaosKinds)]
		r := chaos.NewRand(chaos.Derive(opt.Seed, i))
		sched := chaosScheduleFor(kind, r)
		scStart := time.Now()
		sc, err := runChaosScenario(ctx, cache, root, i, sched, r, opt.Workers, ref.reportJSON)
		if err != nil {
			return nil, fmt.Errorf("merlin: chaos scenario %d/%d (%s, seed %d): %w",
				i+1, opt.Scenarios, kind, opt.Seed, err)
		}
		wall := time.Since(scStart)
		chaosTotal += wall
		res.Kinds[kind]++
		res.Requeues += sc.requeues
		res.Faults += sc.faults
		logf("chaos: scenario %2d/%d %-18s ok in %6v (faults=%d requeues=%d)",
			i+1, opt.Scenarios, kind, wall.Round(time.Millisecond), sc.faults, sc.requeues)
	}
	res.ChaosMean = chaosTotal / time.Duration(opt.Scenarios)
	res.SuiteWall = time.Since(suiteStart)
	return res, nil
}

// chaosScenarioResult is one scenario's observable summary.
type chaosScenarioResult struct {
	reportJSON []byte // normalized report bytes (the bit-identity oracle)
	requeues   int
	faults     int
}

// runChaosScenario stands up one coordinator + workers fleet under the
// given schedule, runs the fixed campaign through it, and checks the
// merged report against wantJSON (nil = reference run: just return the
// bytes). The whole fleet is torn down before returning.
func runChaosScenario(ctx context.Context, cache *merlin.Cache, root string, idx int, sched chaosSchedule, r *chaos.Rand, workers int, wantJSON []byte) (*chaosScenarioResult, error) {
	var faults atomic.Int64
	onFault := func(kind, path string) { faults.Add(1) }

	// A short fleet TTL keeps the scenario's recovery clocks fast: the
	// circuit-breaker cooldown is a multiple of it, and a quarantined
	// worker should be readmitted within the scenario, not minutes later.
	srvOpt := merlin.ServeOptions{Cache: cache, FleetTTL: 2 * time.Second, FleetStallTimeout: sched.stall}
	if sched.fleet != nil {
		srvOpt.FleetClient = &http.Client{
			Transport: &chaos.Transport{R: r, Rules: sched.fleet, OnFault: onFault},
		}
	}
	if sched.fs != nil {
		reg, err := store.OpenRegistryOn(
			&chaos.FS{R: r, Faults: *sched.fs, OnFault: onFault},
			filepath.Join(root, fmt.Sprintf("registry-%d", idx)))
		if err != nil {
			return nil, err
		}
		srvOpt.Registry = reg
	}
	srv, err := merlin.NewServer(srvOpt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	coordURL := "http://" + ln.Addr().String()
	defer func() { hs.Close(); srv.Close() }()

	// Workers: chaos behavior wrapping the real shard executor.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for w := 0; w < workers; w++ {
		run := merlin.WorkerShardRun(nil)
		if sched.behavior != nil {
			run = sched.behavior.Wrap(run)
		}
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		agent := &fleet.Agent{
			ID:          fmt.Sprintf("chaos-w%d", w),
			Coordinator: coordURL,
			Advertise:   "http://" + wln.Addr().String(),
			Interval:    300 * time.Millisecond,
			Run:         run,
		}
		mux := http.NewServeMux()
		mux.Handle("/fleet/", agent.Handler())
		ws := &http.Server{Handler: mux}
		go ws.Serve(wln)
		go agent.Start(wctx)
		defer ws.Close()
	}
	if err := chaosAwaitWorkers(ctx, coordURL, workers); err != nil {
		return nil, err
	}

	id, err := chaosSubmit(ctx, coordURL)
	if err != nil {
		return nil, err
	}
	rep, err := chaosAwait(ctx, coordURL, id)
	if err != nil {
		return nil, err
	}
	norm := normalizeChaosReport(rep)
	gotJSON, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	if wantJSON != nil && string(gotJSON) != string(wantJSON) {
		return nil, fmt.Errorf("merged report diverged from the clean run under sub-lethal chaos:\n got %s\nwant %s",
			gotJSON, wantJSON)
	}
	requeues, err := chaosCountRequeues(ctx, coordURL, id)
	if err != nil {
		return nil, err
	}
	return &chaosScenarioResult{
		reportJSON: gotJSON,
		requeues:   requeues,
		faults:     int(faults.Load()),
	}, nil
}

// chaosAwaitWorkers polls the coordinator's fleet listing until the
// expected worker count has joined.
func chaosAwaitWorkers(ctx context.Context, base string, want int) error {
	if want == 0 {
		return nil
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resp, err := http.Get(base + "/fleet/workers")
		if err == nil {
			var list struct {
				Workers []fleet.WorkerInfo `json:"workers"`
			}
			err := json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
			if err == nil && len(list.Workers) >= want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only some of the %d workers joined within 15s", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosSubmit posts the fixed chaos campaign and returns its id.
func chaosSubmit(ctx context.Context, base string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/campaigns", strings.NewReader(chaosCampaignBody))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted || out.ID == "" {
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, out.Error)
	}
	return out.ID, nil
}

// chaosAwait polls the campaign until it terminates. A campaign that
// fails (or never finishes) under a sub-lethal schedule is the
// certification failure this harness exists to catch.
func chaosAwait(ctx context.Context, base, id string) (*merlin.Report, error) {
	deadline := time.Now().Add(180 * time.Second)
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			return nil, err
		}
		var st struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Report json.RawMessage `json:"report"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case "done":
			rep := new(merlin.Report)
			if err := json.Unmarshal(st.Report, rep); err != nil {
				return nil, fmt.Errorf("decoding report: %w", err)
			}
			return rep, nil
		case "failed", "cancelled":
			return nil, fmt.Errorf("campaign %s under a sub-lethal schedule: %s", st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("campaign still %q after 180s: the fleet is wedged", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosCountRequeues drains the campaign's event stream and counts the
// requeue events — the visible trace of the recovery machinery working.
func chaosCountRequeues(ctx context.Context, base, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/campaigns/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev merlin.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		if ev.Type == "requeue" {
			n++
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}
