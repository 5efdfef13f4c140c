package merlin

// This file wires the daemon's injection executor and the campaign fleet:
// the coordinator side (durable registry adapter, the outcome ledger every
// record's fault lists inject through — resume from the checkpoint, shard
// the pending list indices over internal/fleet workers or run them
// in-process, merge the outcome streams and work counters) and the worker
// side (ServeWorker, which joins a coordinator, heartbeats, and executes
// shard jobs). The coordinator is the only process that runs Preprocess and
// Reduce: a shard job carries Runner.Run's argument list — the campaign
// configuration, the golden reference and the shard's faults — so a worker
// is a pure injection executor holding nothing but the job.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/fleet"
	"merlin/internal/server"
	"merlin/internal/store"
)

// CampaignRegistry is the durable campaign registry: per-record
// checksummed files under one directory, written atomically, holding
// everything a restarted coordinator needs to restore finished campaigns
// and resume interrupted ones from their last outcome checkpoint. Open
// one with OpenRegistry and pass it in ServeOptions.Registry.
type CampaignRegistry = store.Registry

// CampaignRegistryStats is a point-in-time snapshot of registry activity.
type CampaignRegistryStats = store.RegistryStats

// OpenRegistry creates (if needed) and opens a durable campaign registry
// rooted at dir.
func OpenRegistry(dir string) (*CampaignRegistry, error) { return store.OpenRegistry(dir) }

// registryAdapter bridges the pipeline-agnostic server.Registry interface
// to the store's durable registry. server.Record and store.CampaignRecord
// are deliberately struct-identical, so the bridge is a plain conversion.
type registryAdapter struct{ reg *store.Registry }

func (a registryAdapter) Put(rec server.Record) error {
	return a.reg.Put(store.CampaignRecord(rec))
}

func (a registryAdapter) List() ([]server.Record, error) {
	recs, err := a.reg.List()
	if err != nil {
		return nil, err
	}
	out := make([]server.Record, len(recs))
	for i, r := range recs {
		out[i] = server.Record(r)
	}
	return out, nil
}

func (a registryAdapter) Delete(id string) error { return a.reg.Delete(id) }

// ErrDeterminismViolation is the merge point's loudest failure: two
// sources classified the same fault differently. MeRLiN's whole
// fleet protocol rests on a fault's outcome being a pure function of the
// campaign request, so a contradiction means a worker (or the local
// pipeline) is broken or Byzantine — the campaign must fail rather than
// silently prefer either answer.
var ErrDeterminismViolation = errors.New("merlin: determinism violation")

// outcomeLedger is the merge point of one fault list's injection: per-shard
// outcome streams, resumed checkpoints and local shard runs all land here,
// deduplicated by index into the list — the wire's "rep"; the ledger does
// not know whether the list is a reduction's representatives or a
// comprehensive one (a fault that streamed just before its worker died may
// be re-injected elsewhere; by determinism the duplicate carries the same
// outcome, and the first write wins). A
// duplicate carrying a *different* outcome trips the determinism
// violation, which fails the campaign. Every fresh outcome is handed to
// fresh — the progress stream and the durable checkpoint.
type outcomeLedger struct {
	mu        sync.Mutex
	outcomes  []campaign.Outcome // indexed like the list; Cancelled = unclassified
	violation error
	work      campaign.Work // summed over every executed shard, local and remote

	structure string
	emit      func(CampaignEvent)
	fresh     func(rep int, o campaign.Outcome)
}

func newOutcomeLedger(total int, structure string, emit func(CampaignEvent), fresh func(rep int, o campaign.Outcome)) *outcomeLedger {
	l := &outcomeLedger{
		outcomes:  make([]campaign.Outcome, total),
		structure: structure,
		emit:      emit,
		fresh:     fresh,
	}
	for i := range l.outcomes {
		l.outcomes[i] = campaign.Cancelled
	}
	return l
}

// resume seeds the ledger with a previous incarnation's checkpointed
// outcomes, returning how many applied. Checkpoint keys are offset by the
// preceding lists' lengths, so keys outside
// [offset, offset+len) belong to the record's other lists; those and
// unknown outcome names are dropped — a corrupted checkpoint degrades to
// re-injecting, never to a wrong report.
func (l *outcomeLedger) resume(resume map[int]string, offset int) int {
	n := 0
	for key, name := range resume {
		rep := key - offset
		o, err := campaign.ParseOutcome(name)
		if err != nil || o == campaign.Cancelled || rep < 0 || rep >= len(l.outcomes) {
			continue
		}
		l.outcomes[rep] = o
		n++
	}
	return n
}

// record merges one classified fault. Verbatim duplicates are
// no-ops; a duplicate with a different outcome records a determinism
// violation (surfaced by result) and is not merged.
func (l *outcomeLedger) record(rep int, o campaign.Outcome) {
	l.mu.Lock()
	if rep < 0 || rep >= len(l.outcomes) {
		l.mu.Unlock()
		return
	}
	switch prev := l.outcomes[rep]; {
	case prev == campaign.Cancelled:
		l.outcomes[rep] = o
		l.mu.Unlock()
		l.fresh(rep, o)
	case prev != o && l.violation == nil:
		v := fmt.Errorf("%w: fault %d classified %q, then %q",
			ErrDeterminismViolation, rep, prev.String(), o.String())
		l.violation = v
		l.mu.Unlock()
		l.emit(CampaignEvent{Type: "error", Structure: l.structure, Msg: v.Error()})
	default:
		l.mu.Unlock()
	}
}

// pendingShards deals the unclassified indices, ascending, round-robin into
// at most n shards (resumed campaigns only re-inject the remainder). The
// ledger shards indices, not groups: every fault's run is independent and
// Extrapolate reads the merged outcomes, so where a group's representatives
// execute matters to nothing. Deterministic: the same pending set always
// shards the same way, on any machine.
func (l *outcomeLedger) pendingShards(n int) [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	shards := make([][]int, max(n, 1))
	k := 0
	for i, o := range l.outcomes {
		if o == campaign.Cancelled {
			shards[k%len(shards)] = append(shards[k%len(shards)], i)
			k++
		}
	}
	return shards[:min(k, len(shards))]
}

// addWork sums one executed shard's work counters into the merged result.
func (l *outcomeLedger) addWork(w campaign.Work) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.work.Add(w)
}

// result assembles the merged campaign Result — entries still carrying the
// Cancelled sentinel count as never-injected — and reports the first
// determinism violation the merge observed, nil if none.
func (l *outcomeLedger) result() (*campaign.Result, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := campaign.NewResultFrom(l.outcomes)
	res.Work = l.work
	return res, l.violation
}

// shardSpec is what a shard job's opaque Spec holds — Runner.Run's argument
// list. Request is the record's submission, read only for what configures
// the Runner and the plan (workload, core knobs, strategy, workers; the
// coordinator already applied the sampling and grouping
// knobs); Cycles, Insts, Output and ExcLog are the golden reference the
// faults classify against (Insts, the instructions the golden run retired,
// is what the hand-off's acceptance rule measures an interpreter-finished
// run by: without it every remote hand-off falls back); Faults are the
// shard's, parallel to the job's Reps.
type shardSpec struct {
	Request CampaignRequest `json:"request"`
	Cycles  uint64          `json:"cycles"`
	Insts   uint64          `json:"insts"`
	Output  []uint64        `json:"output"`
	ExcLog  []uint32        `json:"exc_log"`
	Faults  []Fault         `json:"faults"`
}

// specDigest is the end-to-end integrity check of a shard job: the hex
// sha256 of its spec bytes, stamped by the coordinator and verified by the
// worker before it decodes them.
func specDigest(spec []byte) string {
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

// validate vets a decoded spec against the core configuration it names
// before anything simulates: the spec is input from outside the process,
// and an out-of-range flip would otherwise panic inside the simulator and
// be recovered as a silently wrong Crash outcome.
func (sp *shardSpec) validate(cfg cpu.Config, reps []int) error {
	if len(sp.Faults) != len(reps) {
		return fmt.Errorf("merlin: shard spec carries %d faults for %d representatives", len(sp.Faults), len(reps))
	}
	if sp.Insts == 0 {
		return fmt.Errorf("merlin: shard spec carries no golden instruction count")
	}
	for _, f := range sp.Faults {
		entries, bits := cfg.StructureGeometry(f.Structure)
		switch {
		case f.Entry < 0 || int(f.Entry) >= entries || f.Bit < 0 || int(f.Bit) >= bits:
			return fmt.Errorf("merlin: shard fault %v is outside the configured geometry (%d entries x %d bits)", f, entries, bits)
		case f.Cycle < 1 || f.Cycle > sp.Cycles:
			return fmt.Errorf("merlin: shard fault %v is outside the golden run (%d cycles)", f, sp.Cycles)
		}
	}
	return nil
}

// ledgerInjector is the daemon's injection executor, the one run path of
// every record on every deployment: each structure of the record's batch
// b classifies the list it is handed through an outcome ledger — seeded
// from the job's checkpoint (a restarted daemon re-injects only the
// remainder), the pending indices dealt into shards and dispatched over
// the pool's live workers (with none alive the shards run in-process,
// which is exactly the single-node pipeline), lost workers' faults
// requeued onto survivors, and every fresh outcome checkpointed through
// the job. The merged Result is bit-identical to a plain Runner.Run's in
// everything but the timing and work counters, because the outcomes are.
//
// Checkpoint keys stay one flat map[int]string per record: a list's indices
// are offset by the lengths of the lists this injector was handed before it
// (a record's lists are injected one after another, in the same order by
// the incarnation that resumes it).
func ledgerInjector(job server.Job, emit func(CampaignEvent), pool *fleet.Pool, client *http.Client, stall time.Duration) injectFunc {
	handed := 0
	return func(ctx context.Context, art *Artifacts, list []Fault, onOutcome func(int, Fault, Outcome)) (*campaign.Result, error) {
		structure := art.Config.Structure.String()
		offset := handed
		handed += len(list)
		led := newOutcomeLedger(len(list), structure, emit, func(i int, o campaign.Outcome) {
			if onOutcome != nil {
				onOutcome(i, list[i], o)
			}
			job.Checkpoint(offset+i, o.String())
		})
		if n := led.resume(job.Resume, offset); n > 0 {
			emit(CampaignEvent{Type: "shard", Structure: structure,
				Msg: fmt.Sprintf("%d of %d faults already classified by checkpoint; injecting the remainder", n, len(list))})
		}

		golden := &art.Golden.Result
		subset := func(reps []int) []Fault {
			faults := make([]Fault, len(reps))
			for i, rep := range reps {
				faults[i] = list[rep]
			}
			return faults
		}
		disp := &fleet.Dispatcher{
			Pool:         pool,
			Client:       client,
			StallTimeout: stall,
			Job: func(reps []int) fleet.ShardJob {
				// Cannot fail: integers plus a request that arrived as JSON.
				spec, _ := json.Marshal(shardSpec{Request: job.Request,
					Cycles: golden.Cycles, Insts: golden.Stats.CommittedInsts,
					Output: golden.Output, ExcLog: golden.ExcLog, Faults: subset(reps)})
				return fleet.ShardJob{Campaign: job.ID, Spec: spec, Digest: specDigest(spec), Reps: reps}
			},
			OnOutcome: func(o fleet.Outcome) {
				out, err := campaign.ParseOutcome(o.Outcome)
				if err != nil || out == campaign.Cancelled {
					return
				}
				led.record(o.Rep, out)
			},
			OnWork: func(raw json.RawMessage) {
				var w campaign.Work
				if json.Unmarshal(raw, &w) == nil {
					led.addWork(w)
				}
			},
			Local: func(ctx context.Context, reps []int) error {
				res, err := runList(ctx, art, subset(reps), func(i int, _ Fault, o campaign.Outcome) {
					led.record(reps[i], o)
				})
				led.addWork(res.Work)
				return err
			},
			Emit: func(typ, msg string) {
				emit(CampaignEvent{Type: typ, Structure: structure, Msg: msg})
			},
		}

		start := time.Now()
		// Two shards per worker keep everyone busy even when run lengths
		// skew, and give the work-stealing rounds units to requeue.
		runErr := disp.Run(ctx, led.pendingShards(max(1, 2*len(pool.Alive()))))
		// A determinism violation observed at the merge point outranks any
		// dispatch error: the report cannot be trusted either way.
		res, verr := led.result()
		if verr != nil {
			runErr = verr
		}
		res.Wall = time.Since(start)
		if runErr == nil && res.Cancelled > 0 {
			runErr = fmt.Errorf("merlin: fleet dispatch left %d faults unclassified", res.Cancelled)
		}
		return res, runErr
	}
}

// WorkerOptions configures a fleet worker process (see ServeWorker).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (required), e.g.
	// "http://coordinator:7411".
	Coordinator string
	// ID names the worker in the coordinator's pool; empty derives it from
	// the advertise address.
	ID string
	// Advertise is the base URL the coordinator reaches this worker at;
	// empty derives "http://127.0.0.1<addr>" — fine for same-host fleets,
	// set it explicitly across machines.
	Advertise string

	// Cache is ignored: a worker executes shards holding nothing but the
	// job and runs no golden run to cache. The field remains only because
	// bench/http.go sets it (see ROADMAP item 8(c)).
	Cache *Cache
	// SnapshotBudget bounds the worker's in-memory snapshot cache
	// (<= 0 = default 512 MB), as in ServeOptions.
	SnapshotBudget int64
	// Logf, when non-nil, receives worker lifecycle log lines.
	Logf func(format string, args ...any)
}

// WorkerShardRun returns the worker's shard executor — the function
// ServeWorker serves, exported so the in-module chaos harness
// (internal/chaos/suite) can wrap the real pipeline in a fleet.Agent of its
// own. It is a pure injection executor: verify the job's digest, decode and
// validate its spec, build the Runner the spec's request configures (with
// the worker's snapshot cache attached), and classify exactly the job's
// faults through the same Runner.Run a coordinator runs for an in-process
// shard, streaming each outcome back under its representative index and
// returning the run's work counters. Every rejection happens before any
// simulation and fails the shard with a named error, so it requeues.
func WorkerShardRun(snapshots *SnapshotCache) fleet.ShardRunFunc {
	return func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) (json.RawMessage, error) {
		if got := specDigest(job.Spec); got != job.Digest {
			return nil, fmt.Errorf("merlin: shard spec digest mismatch: job says %q, its %d bytes hash to %s", job.Digest, len(job.Spec), got)
		}
		var spec shardSpec
		if err := json.Unmarshal(job.Spec, &spec); err != nil {
			return nil, fmt.Errorf("merlin: bad shard spec: %w", err)
		}
		opts, err := requestOptions(spec.Request, nil, snapshots)
		if err != nil {
			return nil, err
		}
		sc, err := buildSessionConfig(spec.Request.Workload, opts)
		if err != nil {
			return nil, err
		}
		runner, err := newRunner(sc.cfg)
		if err != nil {
			return nil, err
		}
		if err := spec.validate(sc.cfg.CPU, job.Reps); err != nil {
			return nil, err
		}
		golden := &cpu.RunResult{Cycles: spec.Cycles, Output: spec.Output, ExcLog: spec.ExcLog,
			Stats: cpu.Stats{CommittedInsts: spec.Insts}}
		res, err := runner.Run(ctx, spec.Faults, golden, sc.cfg.plan(func(i int, _ Fault, o campaign.Outcome) {
			emit(fleet.Outcome{Rep: job.Reps[i], Outcome: o.String()})
		}))
		if err != nil {
			return nil, err
		}
		return json.Marshal(res.Work)
	}
}

// ServeWorker runs a fleet worker on addr until ctx is cancelled: it
// joins the coordinator (retrying until it answers), heartbeats, and
// serves shard jobs over HTTP. A coordinator restart is absorbed
// transparently — heartbeats auto-register against the fresh pool. The
// worker's listener carries the same header/idle timeouts and drain
// deadline as the coordinator's.
func ServeWorker(ctx context.Context, addr string, opt WorkerOptions) error {
	if opt.Coordinator == "" {
		return fmt.Errorf("merlin: ServeWorker requires a coordinator URL")
	}
	coordinator := strings.TrimSuffix(opt.Coordinator, "/")
	advertise := strings.TrimSuffix(opt.Advertise, "/")
	if advertise == "" {
		if strings.HasPrefix(addr, ":") {
			advertise = "http://127.0.0.1" + addr
		} else {
			advertise = "http://" + addr
		}
	}
	id := opt.ID
	if id == "" {
		id = "worker-" + strings.TrimPrefix(strings.TrimPrefix(advertise, "http://"), "https://")
	}
	agent := &fleet.Agent{
		ID:          id,
		Coordinator: coordinator,
		Advertise:   advertise,
		Logf:        opt.Logf,
		Run:         WorkerShardRun(NewSnapshotCache(opt.SnapshotBudget)),
	}

	mux := http.NewServeMux()
	mux.Handle("/fleet/", agent.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"worker":%q,"coordinator":%q}`+"\n", id, coordinator)
	})
	hs := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()
	go func() { errc <- agent.Start(ctx) }()
	select {
	case err := <-errc:
		if ctx.Err() == nil { // listener died or the join never succeeded
			hs.Close()
			return err
		}
	case <-ctx.Done():
	}
	return drain(hs)
}
