package merlin

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/campaign"
)

// TestStartOptionValidation: bad option values fail Start (options only
// set; buildSessionConfig is the one check), and the last WithStrategy
// given wins.
func TestStartOptionValidation(t *testing.T) {
	ctx := context.Background()

	s, err := Start(ctx, "sha", WithStrategy(StrategyForked), WithStrategy(StrategyReplay))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Strategy; got != StrategyReplay {
		t.Fatalf("WithStrategy(forked), WithStrategy(replay): strategy %v", got)
	}

	for name, opts := range map[string][]Option{
		"negative faults":  {WithFaults(-1)},
		"negative workers": {WithWorkers(-2)},
		"bad confidence":   {WithSampling(1.5, 0.01)},
		"bad strategy":     {WithStrategy(Strategy(99))},
		"bad structure":    {WithStructure(Structure(9))},
	} {
		if _, err := Start(ctx, "sha", opts...); err == nil {
			t.Errorf("%s: Start accepted the option", name)
		}
	}
	if _, err := Start(ctx, "nope"); err == nil {
		t.Error("Start accepted an unknown workload")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Start(cancelled, "sha"); !errors.Is(err, context.Canceled) {
		t.Errorf("Start on a cancelled context: %v", err)
	}
}

// TestDefaultStrategyIsForked: the documented entry points run the fast
// path without being asked — a library session, a batch, and a daemon
// request that names no strategy — while the engine's zero Plan stays the
// assumption-free reference.
func TestDefaultStrategyIsForked(t *testing.T) {
	ctx := context.Background()
	if got := startSession(t, "sha").Config().Strategy; got != StrategyForked {
		t.Errorf("Start without WithStrategy: %v", got)
	}
	b, err := StartBatch(ctx, "sha")
	if err != nil {
		t.Fatal(err)
	}
	if b.cfg.Strategy != StrategyForked {
		t.Errorf("StartBatch without WithStrategy: %v", b.cfg.Strategy)
	}
	opts, err := requestOptions(CampaignRequest{Workload: "sha", Structure: "RF"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := buildSessionConfig("sha", opts)
	if err != nil {
		t.Fatal(err)
	}
	if sc.cfg.Strategy != StrategyForked {
		t.Errorf("request without \"strategy\": %v", sc.cfg.Strategy)
	}
	if (campaign.Plan{}).Strategy != campaign.Replay {
		t.Error("the zero Plan is no longer Replay")
	}
}

// TestOneExecutorForBothLists: Run and Baseline run through the
// session's one injectFunc, which is handed the list itself — the reduced
// one, then the whole initial one.
func TestOneExecutorForBothLists(t *testing.T) {
	ctx := context.Background()
	s := preprocessed(t, "sha", WithStructure(RF), WithFaults(200), WithSeed(3))
	var lists [][]Fault
	s.inject = func(ctx context.Context, a *Artifacts, faults []Fault, onOutcome func(int, Fault, Outcome)) (*campaign.Result, error) {
		if a != s.art {
			t.Error("executor handed another session's artifacts")
		}
		lists = append(lists, faults)
		return runList(ctx, a, faults, onOutcome)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Baseline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 2 || !reflect.DeepEqual(lists[0], s.art.Red.Reduced()) || !reflect.DeepEqual(lists[1], s.art.Faults) {
		t.Fatalf("executor saw %d lists; want the reduced list from Run, then the initial one from Baseline", len(lists))
	}
	if rep.Injected != len(lists[0]) || base.Faults != len(lists[1]) || len(base.Outcomes) != base.Faults {
		t.Errorf("reports disagree with the lists: injected %d of %d, baseline %d of %d",
			rep.Injected, len(lists[0]), base.Faults, len(lists[1]))
	}
}

// TestSessionProgressStream: the stream carries one event per finished
// phase, in phase order, with the cache outcome, and one event per
// injected fault, every event tagged with the session's structure.
func TestSessionProgressStream(t *testing.T) {
	var mu sync.Mutex
	var events []CampaignEvent
	ctx := context.Background()
	s, err := Start(ctx, "sha",
		WithStructure(RF), WithFaults(200), WithSeed(3),
		WithProgress(func(ev CampaignEvent) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var phases []string
	faults := 0
	for _, ev := range events {
		if ev.Structure != "RF" {
			t.Fatalf("event tagged %q, want RF: %+v", ev.Structure, ev)
		}
		switch ev.Type {
		case "fault":
			faults++
			if o, err := ParseOutcome(ev.Outcome); err != nil || o == Cancelled || ev.Fault == "" {
				t.Fatalf("bad fault event: %+v", ev)
			}
		case "preprocess":
			if ev.Msg == "" || ev.CacheHit == nil {
				t.Errorf("preprocess event without summary or cache outcome: %+v", ev)
			}
			fallthrough
		default:
			phases = append(phases, ev.Type)
		}
	}
	want := "preprocess,reduce,inject"
	if got := strings.Join(phases, ","); got != want {
		t.Fatalf("phase events = %s, want %s", got, want)
	}
	if faults != rep.Injected {
		t.Fatalf("stream carried %d fault events, report injected %d", faults, rep.Injected)
	}
}

// TestSessionInjectCancellation: cancelling mid-injection returns
// ctx.Err() plus a partial report with a consistent Cancelled count —
// the Session-level acceptance criterion.
func TestSessionInjectCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	s, err := Start(ctx, "sha",
		WithStructure(RF), WithFaults(4000), WithSeed(7), WithWorkers(1),
		WithProgress(func(ev CampaignEvent) {
			if ev.Type == "fault" && seen.Add(1) == 3 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled Run returned no partial report")
	}
	if rep.Cancelled == 0 {
		t.Fatal("partial report has no Cancelled count")
	}
	if got := rep.Dist.Total() + rep.Cancelled; got != rep.Injected+rep.Cancelled || rep.Dist.Total() != rep.Injected {
		t.Fatalf("inconsistent partial report: dist %d injected %d cancelled %d",
			rep.Dist.Total(), rep.Injected, got)
	}

	// A fresh session over the same campaign completes and classifies
	// every representative the partial run left cancelled.
	full, err := Start(context.Background(), "sha",
		WithStructure(RF), WithFaults(4000), WithSeed(7), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	done, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if done.Cancelled != 0 || done.Injected != rep.Injected+rep.Cancelled {
		t.Fatalf("resubmitted campaign: injected %d cancelled %d, partial was %d+%d",
			done.Injected, done.Cancelled, rep.Injected, rep.Cancelled)
	}
}

// TestReportJSONCarriesNames: the text-marshaling satellite — structures,
// strategies and outcomes serialize as names, and the report round-trips.
func TestReportJSONCarriesNames(t *testing.T) {
	rep, err := startSession(t, "sha", WithStructure(RF), WithFaults(120), WithSeed(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"Structure":"RF"`) {
		t.Errorf("report JSON carries no structure name: %s", raw)
	}
	if strings.Contains(string(raw), `"RepOutcomes":[0`) {
		t.Error("report JSON carries bare-int outcomes")
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Structure != rep.Structure || len(back.RepOutcomes) != len(rep.RepOutcomes) {
		t.Fatal("round-tripped report diverged")
	}
	for i := range back.RepOutcomes {
		if back.RepOutcomes[i] != rep.RepOutcomes[i] {
			t.Fatalf("outcome %d diverged after round trip", i)
		}
	}

	// ParseStructure is the shared, case-insensitive structure parser.
	for name, want := range map[string]Structure{"rf": RF, "Sq": SQ, "L1D": L1D} {
		got, err := ParseStructure(name)
		if err != nil || got != want {
			t.Errorf("ParseStructure(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStructure("ROB"); err == nil {
		t.Error("ParseStructure accepted an unknown structure")
	}
}

// TestSessionBaselineReusesGolden: Session.Baseline after Run must not
// repeat the golden run (one Artifacts, same golden cycles) and agrees
// with the baseline of an independent session.
func TestSessionBaselineReusesGolden(t *testing.T) {
	ctx := context.Background()
	s, err := Start(ctx, "fft", WithStructure(SQ), WithFaults(200), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	art := s.Artifacts()
	base, err := s.Baseline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Artifacts() != art {
		t.Error("Baseline re-ran Preprocess")
	}
	if base.GoldenCycles != rep.GoldenCycles || base.Faults != rep.InitialFaults {
		t.Fatalf("baseline diverged from session campaign: %+v", base)
	}

	fresh, err := startSession(t, "fft", WithStructure(SQ), WithFaults(200), WithSeed(5)).Baseline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Dist != base.Dist {
		t.Fatalf("fresh-session baseline %v != baseline after Run %v", fresh.Dist, base.Dist)
	}
}

// TestBaselineReportPinsNoRunner: a retained BaselineReport does not keep
// its session's Runner alive, and with it the checkpoint ladder and clone
// pool, once the session is dropped.
func TestBaselineReportPinsNoRunner(t *testing.T) {
	freed := make(chan struct{})
	base := func() *BaselineReport {
		s := startSession(t, "sha", WithStructure(RF), WithFaults(100), WithSeed(1))
		base, err := s.Baseline(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(s.Artifacts().Runner, func(*campaign.Runner) { close(freed) })
		return base
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(base)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the session's Runner is still reachable 5 s after the session was dropped; the retained BaselineReport pins it")
		}
	}
}

// TestPreprocessAllocBudget: what one cold gcc/RF Preprocess allocates at
// two workers, after a first one has built what a process builds once (the
// program, the caches' zero generations, the spare interval chunks, and
// the program's golden ladder at two workers, which the process shares).
// The run is single-goroutine and the worker count fixed, so the figure
// repeats to the byte on any host. It is 2.07 MB: the golden run and
// analysis now that each interval is stored once, into recycled chunks and
// then an exact-size slice, and the RF index keeps one id run per register
// (4.7 MB while the interval slice doubled as it grew and the index kept
// one run per byte); it was 2.65 MB while every Runner's golden run froze
// its own rungs. The budget sits below that and below the 7.0 MB it was
// while each new core built and cleared its own 1.4 MB of cache sets, the
// 12.4 MB the slices' quarter-step growth cost and the 37.6 MB the
// retained log and its doublings cost (41.8 MB while the golden run froze
// a checkpoint ladder, 74.9 MB when the log was copied, sorted and grown
// by quarter steps), so any of them coming back fails here.
func TestPreprocessAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 2_350_000
	// The program assembled, the caches' zero generations, the spare
	// interval chunks and the golden ladder built, once per process: not
	// Preprocess's cost.
	preprocessed(t, "gcc", WithStructure(RF), WithFaults(2000), WithSeed(1), WithWorkers(2))
	s := startSession(t, "gcc", WithStructure(RF), WithFaults(2000), WithSeed(1), WithWorkers(2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Preprocess(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("gcc/RF Preprocess allocated %.1f MB", float64(got)/1e6)
	if got > budget {
		t.Errorf("gcc/RF Preprocess allocated %d bytes, budget %d", got, budget)
	}
}

// TestCampaignAllocBudget: what one sha/RF/2000 campaign allocates from
// Start through Run and Baseline on one worker (the benchmark's
// audit_baseline campaign), after a first campaign has built what a process
// builds once (the program, the golden track, the zero generations, the
// reset state and the pooled shells of the program's machine entry). One
// worker makes the figure repeat to the byte, and its golden run freezes no
// rung. It is 1.37 MB now that the reset state and the clone pool are
// shared by every Runner of the program; it was 1.71 MB while each Runner
// cloned its own reset state and filled its own pool, 2.12 MB once the
// golden run stored each interval once and indexed each RF interval once,
// 2.71 MB while the interval slice doubled as it grew and the index kept
// one id run per byte, 2.8 MB before the golden run stopped recording the
// branch trace, and 6.7 MB while every new core built its own cache sets,
// a read hit copied its set's bytes and every freeze rebuilt a table of
// every set.
func TestCampaignAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 1_680_000
	campaign := func() {
		s := startSession(t, "sha", WithStructure(RF), WithFaults(2000), WithSeed(1), WithWorkers(1))
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Baseline(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	campaign()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	campaign()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("sha/RF/2000 Run+Baseline allocated %.2f MB", float64(got)/1e6)
	if got > budget {
		t.Errorf("sha/RF/2000 Run+Baseline allocated %d bytes, budget %d", got, budget)
	}
}
