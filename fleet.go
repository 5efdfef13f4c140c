package merlin

// This file wires the daemon's injection executor and the campaign fleet:
// the coordinator side (durable registry adapter, the outcome ledger every
// record's structures inject through — resume from the checkpoint, shard
// the pending fault groups over internal/fleet workers or run them
// in-process, merge the outcome streams) and the worker side (ServeWorker,
// which joins a coordinator, heartbeats, and executes shard jobs against
// the local pipeline). MeRLiN's determinism keeps the protocol thin: a
// worker re-derives Preprocess and Reduce bit-identically from the
// campaign request, so shard jobs carry only the request JSON, the
// structure name and its representative indices, and golden artifacts
// travel separately by content address.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"merlin/internal/campaign"
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
// sources classified the same representative differently. MeRLiN's whole
// fleet protocol rests on a rep's outcome being a pure function of the
// campaign request, so a contradiction means a worker (or the local
// pipeline) is broken or Byzantine — the campaign must fail rather than
// silently prefer either answer.
var ErrDeterminismViolation = errors.New("merlin: determinism violation")

// outcomeLedger is the merge point of one structure's injection: per-shard
// outcome streams, resumed checkpoints and local shard runs all land here,
// deduplicated by representative index (a rep that streamed just before
// its worker died may be re-injected elsewhere; by determinism the
// duplicate carries the same outcome, and the first write wins). A
// duplicate carrying a *different* outcome trips the determinism
// violation, which fails the campaign. Every fresh outcome is handed to
// fresh — the progress stream and the durable checkpoint.
type outcomeLedger struct {
	mu        sync.Mutex
	outcomes  []campaign.Outcome // indexed by rep; Cancelled = unclassified
	violation error
	work      campaign.Result // work counters summed over the locally executed shards

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
// preceding structures' representative counts, so keys outside
// [offset, offset+len) belong to the record's other structures; those and
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

// record merges one classified representative. Verbatim duplicates are
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
		v := fmt.Errorf("%w: representative %d classified %q, then %q",
			ErrDeterminismViolation, rep, prev.String(), o.String())
		l.violation = v
		l.mu.Unlock()
		l.emit(CampaignEvent{Type: "error", Structure: l.structure, Msg: v.Error()})
	default:
		l.mu.Unlock()
	}
}

// pendingShards partitions the unclassified representatives into shards
// along group boundaries: the reduction's deterministic whole-group
// sharding, filtered down to what is still pending (resumed campaigns
// only re-inject the remainder).
func (l *outcomeLedger) pendingShards(red *Reduction, n int) [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]int
	for _, shard := range red.ShardReps(n) {
		var keep []int
		for _, rep := range shard {
			if l.outcomes[rep] == campaign.Cancelled {
				keep = append(keep, rep)
			}
		}
		if len(keep) > 0 {
			out = append(out, keep)
		}
	}
	return out
}

// addWork sums one locally executed shard's work counters into the merged
// result (SnapshotHit = any shard hit). Remotely executed shards report
// none.
func (l *outcomeLedger) addWork(r *campaign.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.work.Serial += r.Serial
	l.work.Clones += r.Clones
	l.work.CloneTime += r.CloneTime
	l.work.SimCycles += r.SimCycles
	l.work.SnapshotHit = l.work.SnapshotHit || r.SnapshotHit
}

// result assembles the merged campaign Result — entries still carrying the
// Cancelled sentinel count as never-injected — and reports the first
// determinism violation the merge observed, nil if none.
func (l *outcomeLedger) result() (*campaign.Result, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := campaign.NewResultFrom(l.outcomes)
	res.Serial, res.Clones, res.CloneTime = l.work.Serial, l.work.Clones, l.work.CloneTime
	res.SimCycles, res.SnapshotHit = l.work.SimCycles, l.work.SnapshotHit
	return res, l.violation
}

// ledgerInjector is the daemon's injection executor, the one run path of
// every record on every deployment: each structure of the record's batch
// b classifies its reduced list through an outcome ledger — seeded from
// the job's checkpoint (a restarted daemon re-injects only the remainder),
// the pending representatives sharded along group boundaries and
// dispatched over the pool's live workers (with none alive the shards run
// in-process, which is exactly the single-node pipeline), lost workers'
// reps requeued onto survivors, and every fresh outcome checkpointed
// through the job. The merged Result is bit-identical to a plain
// Runner.Run's in everything but the timing and work counters, because the
// outcomes are.
//
// Checkpoint keys stay one flat map[int]string per record: a structure's
// representative indices are offset by the ReducedCount of the structures
// before it in list order (Batch.Run injects in that order, so those
// reductions exist by the time this one runs).
func ledgerInjector(b *Batch, job server.Job, emit func(CampaignEvent), cache *Cache, pool *fleet.Pool, client *http.Client, stall time.Duration) injectFunc {
	return func(ctx context.Context, s *Session, onOutcome func(int, Fault, Outcome)) (*campaign.Result, error) {
		art := s.art
		structure := art.Config.Structure.String()
		offset := 0
		for _, prev := range b.sessions {
			if prev == s {
				break
			}
			offset += prev.art.Red.ReducedCount()
		}
		reduced := art.Red.Reduced()
		led := newOutcomeLedger(len(reduced), structure, emit, func(rep int, o campaign.Outcome) {
			if onOutcome != nil {
				onOutcome(rep, reduced[rep], o)
			}
			job.Checkpoint(map[int]string{offset + rep: o.String()})
		})
		if n := led.resume(job.Resume, offset); n > 0 {
			emit(CampaignEvent{Type: "shard", Structure: structure,
				Msg: fmt.Sprintf("%d of %d representatives already classified by checkpoint; injecting the remainder", n, len(reduced))})
		}

		reqJSON, err := json.Marshal(job.Request)
		if err != nil {
			return nil, err
		}
		sj := fleet.ShardJob{Campaign: job.ID, Request: reqJSON, Structure: structure}
		if cache != nil {
			sj.ArtifactID = store.NewKey(art.Config.Workload, art.Config.CPU, art.Runner.GoldenBudget, b.structures...).ID()
			sj.ArtifactURL = "/artifacts/" + sj.ArtifactID
		}
		disp := &fleet.Dispatcher{
			Pool:         pool,
			Client:       client,
			StallTimeout: stall,
			Job: func(reps []int) fleet.ShardJob {
				j := sj // shards dispatch concurrently
				j.Reps = reps
				return j
			},
			OnOutcome: func(o fleet.Outcome) {
				out, err := campaign.ParseOutcome(o.Outcome)
				if err != nil || out == campaign.Cancelled {
					return
				}
				led.record(o.Rep, out)
			},
			Local: func(ctx context.Context, reps []int) error {
				res, err := art.injectSubset(ctx, reps, func(rep int, _ Fault, o campaign.Outcome) {
					led.record(rep, o)
				})
				if res != nil {
					led.addWork(res)
				}
				return err
			},
			Emit: func(typ, msg string) {
				emit(CampaignEvent{Type: typ, Structure: structure, Msg: msg})
			},
		}

		start := time.Now()
		// Two shards per worker keep everyone busy even when group sizes
		// skew, and give the work-stealing rounds units to requeue.
		runErr := disp.Run(ctx, led.pendingShards(art.Red, max(1, 2*len(pool.Alive()))))
		// A determinism violation observed at the merge point outranks any
		// dispatch error: the report cannot be trusted either way.
		res, verr := led.result()
		if verr != nil {
			runErr = verr
		}
		res.Wall = time.Since(start)
		if runErr == nil && res.Cancelled > 0 {
			runErr = fmt.Errorf("merlin: fleet dispatch left %d representatives unclassified", res.Cancelled)
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
	// Interval is the heartbeat period (0 = a third of the coordinator's
	// TTL).
	Interval time.Duration

	// Cache is the worker's golden-run artifact cache; with one attached
	// the worker prefetches the campaign's golden artifact from the
	// coordinator by content address and skips its own golden run. Nil
	// disables (the worker recomputes — slower, still correct).
	Cache *Cache
	// SnapshotBudget bounds the worker's in-memory snapshot cache
	// (0 = default 512 MB, negative disables), as in ServeOptions.
	SnapshotBudget int64
	// Logf, when non-nil, receives worker lifecycle log lines.
	Logf func(format string, args ...any)
}

// maxArtifactBytes bounds one artifact transfer; the raw payload is
// checksum-validated before it enters the cache, so a truncated fetch is
// rejected, not served.
const maxArtifactBytes = 256 << 20

// artifactDigestHeader carries the sha256 of an artifact's raw bytes on
// the transfer, giving the receiving worker an end-to-end integrity
// check that is independent of the artifact's own embedded checksum.
const artifactDigestHeader = "X-Merlin-Artifact-Digest"

// prefetchArtifact pulls the campaign's golden artifact by content
// address into the worker's cache, best-effort: any failure just means
// the worker recomputes its golden run. Received bytes are verified
// against the coordinator's advertised sha256 before they may enter the
// cache — an in-transit bit flip is dropped here, not discovered later
// as a mysterious decode failure.
func prefetchArtifact(ctx context.Context, client *http.Client, cache *Cache, coordinator string, job fleet.ShardJob) {
	if cache == nil || job.ArtifactID == "" || cache.HasRaw(job.ArtifactID) {
		return
	}
	url := job.ArtifactURL
	if url == "" {
		url = "/artifacts/" + job.ArtifactID
	}
	if strings.HasPrefix(url, "/") {
		url = coordinator + url
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
	if err != nil {
		return
	}
	if want := resp.Header.Get(artifactDigestHeader); want != "" {
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			return // corrupted in transit; recompute rather than cache damage
		}
	}
	cache.PutRaw(job.ArtifactID, raw)
}

// WorkerShardRun returns the worker's shard executor — the function
// ServeWorker serves, exported so the in-module chaos harness
// (internal/chaos/suite) can wrap the real pipeline in a fleet.Agent of its
// own. It executes one shard job against the local pipeline: the worker
// re-derives the record's batch Preprocess (served from its
// artifact cache when the prefetch landed — the same structure list, so
// the same content address as the coordinator's) and the shard's
// structure's Reduce deterministically from the request, then injects
// exactly the job's representatives, streaming each outcome back. client
// is the artifact-prefetch HTTP client; nil takes a 60s-bounded default.
func WorkerShardRun(cache *Cache, snapshots *SnapshotCache, coordinator string, client *http.Client) fleet.ShardRunFunc {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) error {
		var req CampaignRequest
		if err := json.Unmarshal(job.Request, &req); err != nil {
			return fmt.Errorf("merlin: bad shard request: %w", err)
		}
		prefetchArtifact(ctx, client, cache, coordinator, job)
		opts, err := requestOptions(req, cache, snapshots)
		if err != nil {
			return err
		}
		b, err := StartBatch(ctx, req.Workload, opts...)
		if err != nil {
			return err
		}
		if err := b.Preprocess(ctx); err != nil {
			return err
		}
		for _, s := range b.sessions {
			// A job naming no structure predates list records: its request
			// has exactly one.
			if job.Structure != "" && job.Structure != s.cfg.Structure.String() {
				continue
			}
			if _, err := s.Reduce(); err != nil {
				return err
			}
			_, err := s.art.injectSubset(ctx, job.Reps, func(rep int, f Fault, o campaign.Outcome) {
				emit(fleet.Outcome{Rep: rep, Fault: f.String(), Outcome: o.String()})
			})
			return err
		}
		return fmt.Errorf("merlin: shard names structure %q, which the request does not list", job.Structure)
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
	var snapshots *SnapshotCache
	if opt.SnapshotBudget >= 0 {
		snapshots = NewSnapshotCache(opt.SnapshotBudget)
	}
	agent := &fleet.Agent{
		ID:          id,
		Coordinator: coordinator,
		Advertise:   advertise,
		Interval:    opt.Interval,
		Logf:        opt.Logf,
		Run:         WorkerShardRun(opt.Cache, snapshots, coordinator, nil),
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
