// Package fleet is the coordinator/worker layer of the campaign service:
// worker registration and heartbeat-based liveness (Pool), the worker
// agent that joins a coordinator and executes shard jobs (Agent), and the
// work-stealing dispatcher that spreads a campaign's fault groups across
// live workers and requeues a lost worker's unfinished groups (Dispatcher).
//
// A shard job ships the faults, not the recipe that chose them: the
// coordinator runs the pipeline's analysis phases once per campaign, and a
// job carries what executing its slice takes — an opaque spec (the
// campaign configuration, the golden reference and the shard's faults,
// defined by whoever injects the ShardRunFunc) plus the representative
// index each fault reports under — so a worker cannot disagree with the
// coordinator about which fault an index means. The spec travels with its
// sha256, checked before the worker looks inside. Per-fault outcomes
// stream back as NDJSON with a final done marker carrying the shard's
// (equally opaque) work counters; any stream that ends without the marker
// (worker crash, network partition) simply leaves its reps pending, and
// the next dispatch round reassigns them to whoever is still alive.
//
// Like internal/server, this package never imports the simulator: the
// shard execution is an injected ShardRunFunc, and spec and work are
// opaque JSON. The root merlin package wires both sides.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ShardJob is the wire form of one shard assignment: everything a worker
// needs to execute its slice of a campaign.
type ShardJob struct {
	// Campaign is the coordinator's record id (for logs and idempotence).
	Campaign string `json:"campaign"`
	// Spec is what the shard run executes, opaque to this package; Digest
	// is the hex sha256 of its bytes, which the worker verifies before
	// decoding them.
	Spec   json.RawMessage `json:"spec"`
	Digest string          `json:"digest"`
	// Reps are the representative indices the shard's outcomes report
	// under, parallel to the faults the spec carries.
	Reps []int `json:"reps"`
}

// Outcome is one classified representative: a line of a shard job's NDJSON
// response stream.
type Outcome struct {
	Rep     int    `json:"rep"`
	Outcome string `json:"outcome,omitempty"`
}

// streamLine is the wire union of a shard stream: Outcome lines, closed by
// the done marker (Done true; Err carrying the shard's failure if it did
// not complete cleanly, else Work what executing it cost).
type streamLine struct {
	Outcome
	Done bool            `json:"done,omitempty"`
	Err  string          `json:"error,omitempty"`
	Work json.RawMessage `json:"work,omitempty"`
}

// ShardRunFunc executes one shard job on a worker, emitting each
// classified representative as it lands and returning the shard's work
// counters (opaque here; the done marker carries them to the
// coordinator). It must observe ctx (the HTTP request's context:
// coordinator gone = stop injecting).
type ShardRunFunc func(ctx context.Context, job ShardJob, emit func(Outcome)) (work json.RawMessage, err error)

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"`
	LastSeen time.Time `json:"last_seen"`
	Alive    bool      `json:"alive"`
	// Quarantined marks a worker inside its circuit-breaker cooldown:
	// heartbeating, but excluded from shard assignment until the
	// cooldown expires or a successful shard closes the breaker.
	Quarantined bool `json:"quarantined,omitempty"`
}

// DefaultTTL is the heartbeat liveness window: a worker silent for
// longer is considered dead and stops receiving shards (its in-flight
// shards requeue when their streams break).
const DefaultTTL = 10 * time.Second

// BreakerThreshold is the circuit breaker's trip point: a worker whose
// shard dispatches fail this many times in a row is quarantined — it
// stops receiving shards even while its heartbeats keep it registered.
// A heartbeat proves the process is up, not that it can run shards; a
// worker that stalls or crashes every shard while heartbeating would
// otherwise be re-admitted every round and tax each one with a watchdog
// window.
const BreakerThreshold = 3

// Pool tracks registered workers and their liveness on the coordinator.
// Heartbeats auto-register, so a restarted coordinator re-learns its
// fleet within one heartbeat interval without any worker-side logic.
type Pool struct {
	ttl time.Duration
	now func() time.Time // test hook

	mu      sync.Mutex
	workers map[string]*WorkerInfo
	// fails and cooledUntil implement the consecutive-failure circuit
	// breaker. Both are keyed by worker id and deliberately survive
	// Remove: a failing worker that re-registers on its next heartbeat
	// must not start with a clean slate.
	fails       map[string]int
	cooledUntil map[string]time.Time
}

// NewPool creates a worker pool with the given liveness TTL (0 means
// DefaultTTL).
func NewPool(ttl time.Duration) *Pool {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Pool{ttl: ttl, now: time.Now,
		workers:     make(map[string]*WorkerInfo),
		fails:       make(map[string]int),
		cooledUntil: make(map[string]time.Time),
	}
}

// NoteShardFailure feeds the circuit breaker: one failed shard dispatch
// against id. At BreakerThreshold consecutive failures the worker is
// quarantined for a cooldown of several TTLs, after which it is
// half-open — assignable again, but one more failure re-trips the
// breaker instantly (the counter only resets on success).
func (p *Pool) NoteShardFailure(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails[id]++
	if p.fails[id] >= BreakerThreshold {
		p.cooledUntil[id] = p.now().Add(4 * p.ttl)
	}
}

// NoteShardSuccess closes the breaker for id: a cleanly completed shard
// proves the worker healthy, clearing its failure streak and any
// quarantine.
func (p *Pool) NoteShardSuccess(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.fails, id)
	delete(p.cooledUntil, id)
}

// quarantinedLocked reports whether id is inside its breaker cooldown.
// Callers hold p.mu.
func (p *Pool) quarantinedLocked(id string, now time.Time) bool {
	until, ok := p.cooledUntil[id]
	return ok && now.Before(until)
}

// Heartbeat registers or refreshes a worker. Address changes (a worker
// restarted on a new port) take effect immediately.
func (p *Pool) Heartbeat(id, addr string) error {
	if id == "" || addr == "" {
		return fmt.Errorf("fleet: heartbeat requires id and addr")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[id]
	if w == nil {
		w = &WorkerInfo{ID: id}
		p.workers[id] = w
	}
	w.Addr = addr
	w.LastSeen = p.now()
	return nil
}

// Remove forgets a worker immediately (e.g. after a failed dispatch, so
// the next round does not wait out the TTL to route around it).
func (p *Pool) Remove(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.workers, id)
}

// Alive returns the workers seen within the TTL and not quarantined by
// the circuit breaker, sorted by id for deterministic shard assignment.
func (p *Pool) Alive() []WorkerInfo {
	now := p.now()
	cutoff := now.Add(-p.ttl)
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []WorkerInfo
	for _, w := range p.workers {
		if w.LastSeen.After(cutoff) && !p.quarantinedLocked(w.ID, now) {
			wi := *w
			wi.Alive = true
			out = append(out, wi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// All returns every registered worker with its liveness and quarantine
// flags, sorted by id (the /fleet/workers listing).
func (p *Pool) All() []WorkerInfo {
	now := p.now()
	cutoff := now.Add(-p.ttl)
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerInfo, 0, len(p.workers))
	for _, w := range p.workers {
		wi := *w
		wi.Alive = w.LastSeen.After(cutoff)
		wi.Quarantined = p.quarantinedLocked(w.ID, now)
		out = append(out, wi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// joinBody is the wire form of POST /fleet/join and /fleet/heartbeat.
type joinBody struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Handler serves the coordinator's fleet endpoints over the pool:
//
//	POST /fleet/join       register a worker ({"id","addr"})
//	POST /fleet/heartbeat  refresh liveness (same body; auto-registers)
//	GET  /fleet/workers    list workers with liveness flags
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	beat := func(w http.ResponseWriter, r *http.Request) {
		var body joinBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, `{"error":"bad join body"}`, http.StatusBadRequest)
			return
		}
		if err := p.Heartbeat(body.ID, body.Addr); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"ttl_ms":%d}`+"\n", p.ttl.Milliseconds())
	}
	mux.HandleFunc("POST /fleet/join", beat)
	mux.HandleFunc("POST /fleet/heartbeat", beat)
	mux.HandleFunc("GET /fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"workers": p.All()})
	})
	return mux
}

// retry runs f up to attempts times, sleeping backoff, 2*backoff, ... in
// between (capped at 10x), until f succeeds or ctx is done. Every
// coordinator↔worker call goes through it.
func retry(ctx context.Context, attempts int, backoff time.Duration, f func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	delay := backoff
	for i := 0; i < attempts; i++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		if err = f(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		if delay < 10*backoff {
			delay *= 2
		}
	}
	return err
}

// Agent is the worker side: it joins a coordinator, heartbeats until its
// context ends, and serves shard jobs over HTTP. Run is required;
// everything else defaults.
type Agent struct {
	// ID names this worker in the coordinator's pool (required).
	ID string
	// Coordinator is the coordinator's base URL (required for Start).
	Coordinator string
	// Advertise is the base URL the coordinator uses to reach this
	// worker's handler (required for Start).
	Advertise string
	// Run executes one shard job (required).
	Run ShardRunFunc

	// Interval is the heartbeat period (0 = TTL/3 as reported by the
	// coordinator's join response, falling back to 2s).
	Interval time.Duration
	// Logf, when non-nil, receives agent lifecycle log lines.
	Logf func(format string, args ...any)
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// beatClient sends an Agent's join and heartbeat calls.
var beatClient = &http.Client{Timeout: 5 * time.Second}

// beat posts one join/heartbeat and returns the coordinator's TTL.
func (a *Agent) beat(ctx context.Context, path string) (time.Duration, error) {
	body, _ := json.Marshal(joinBody{ID: a.ID, Addr: a.Advertise})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := beatClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: %s returned %d", path, resp.StatusCode)
	}
	var out struct {
		TTLms int64 `json:"ttl_ms"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return time.Duration(out.TTLms) * time.Millisecond, nil
}

// Start joins the coordinator (retrying with backoff until it answers)
// and heartbeats until ctx is cancelled. A coordinator restart is
// absorbed transparently: heartbeats auto-register, so the next
// successful beat re-joins the fresh pool.
func (a *Agent) Start(ctx context.Context) error {
	if a.ID == "" || a.Coordinator == "" || a.Advertise == "" {
		return fmt.Errorf("fleet: Agent needs ID, Coordinator and Advertise")
	}
	var ttl time.Duration
	err := retry(ctx, 30, 500*time.Millisecond, func() error {
		var err error
		ttl, err = a.beat(ctx, "/fleet/join")
		if err != nil {
			a.logf("fleet: join %s: %v (retrying)", a.Coordinator, err)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: joining %s: %w", a.Coordinator, err)
	}
	interval := a.Interval
	if interval <= 0 {
		interval = 2 * time.Second
		if ttl > 0 {
			interval = ttl / 3
		}
	}
	a.logf("fleet: worker %s joined %s (heartbeat every %v)", a.ID, a.Coordinator, interval)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if _, err := a.beat(ctx, "/fleet/heartbeat"); err != nil && ctx.Err() == nil {
				// Missed beats are survivable: the TTL tolerates a few, and
				// the next success re-registers. Keep beating.
				a.logf("fleet: heartbeat: %v", err)
			}
		}
	}
}

// Handler serves the worker's shard endpoint:
//
//	POST /fleet/run  execute a shard job, streaming Outcome NDJSON with a
//	                 final done marker
//
// The stream is flushed per outcome so the coordinator sees (and
// checkpoints) progress while the shard runs; a worker crash mid-stream
// is therefore visible as a broken stream with no done marker, and only
// the unstreamed reps need requeueing.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/run", func(w http.ResponseWriter, r *http.Request) {
		var job ShardJob
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			http.Error(w, `{"error":"bad shard job"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		var mu sync.Mutex // emit may be called from the shard's own workers
		send := func(line streamLine) {
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(line)
			if flusher != nil {
				flusher.Flush()
			}
		}
		a.logf("fleet: shard %s: %d reps", job.Campaign, len(job.Reps))
		work, err := a.Run(r.Context(), job, func(o Outcome) { send(streamLine{Outcome: o}) })
		done := streamLine{Done: true, Work: work}
		if err != nil {
			done = streamLine{Done: true, Err: err.Error()}
		}
		send(done)
	})
	return mux
}

// Dispatcher spreads shard jobs over a pool's live workers and steals
// back the work of workers that die mid-shard. Pool, Job, OnOutcome and
// Local are required. Each shard gets 2 remote attempts per round (200 ms
// initial backoff) for 3 rounds, and one outcome line may be 1 MiB; a
// shard still failing when the rounds run out runs Local.
type Dispatcher struct {
	// Pool supplies live workers each round.
	Pool *Pool
	// Job builds the wire job for a rep set.
	Job func(reps []int) ShardJob
	// OnOutcome receives every classified representative, from any
	// worker's stream (and from Local). It must tolerate duplicates: a
	// rep that streamed just before its worker died may be re-injected
	// elsewhere, and by determinism the duplicate carries the same
	// outcome.
	OnOutcome func(o Outcome)
	// OnWork, when non-nil, receives the work counters of every remote
	// shard that finished cleanly, as its ShardRunFunc returned them.
	OnWork func(work json.RawMessage)
	// Local runs a rep set in-process: the degradation path when no
	// workers are alive and the last resort for reps whose remote
	// attempts are exhausted. Calls are serialized by the Dispatcher.
	Local func(ctx context.Context, reps []int) error

	// Client executes shard streams. Nil means a hardened default with
	// dial/TLS/response-header timeouts but no overall timeout: shard
	// streams are long-lived, so in-stream liveness comes from the
	// progress watchdog (StallTimeout), not a deadline.
	Client *http.Client
	// StallTimeout is the per-shard progress watchdog: a stream that
	// produces no line for this long is abandoned (its body closed), the
	// worker removed and failure-noted, and the unclassified reps
	// requeued — a stalled-but-heartbeating worker can no longer hold
	// dispatch hostage. <= 0 = DefaultStallTimeout.
	StallTimeout time.Duration
	// Emit, when non-nil, receives dispatch lifecycle events for the
	// campaign's event log ("shard", "requeue").
	Emit func(typ, msg string)

	// attempts, backoff, rounds and maxLine override the per-round remote
	// attempts, the initial retry backoff, the dispatch rounds and the
	// outcome line limit in bytes; 0 takes the defaults above.
	attempts int
	backoff  time.Duration
	rounds   int
	maxLine  int

	localMu sync.Mutex
}

// DefaultStallTimeout is the progress watchdog's window, deliberately
// generous: representative injections take milliseconds to seconds, so
// minutes of total silence on an open stream means a wedged worker, not a
// slow one.
const DefaultStallTimeout = 2 * time.Minute

// Named dispatch diagnostics. Wrapped (never returned bare) so callers
// can errors.Is against the failure class.
var (
	// ErrShardStall marks a stream abandoned by the progress watchdog.
	ErrShardStall = errors.New("fleet: shard stream stalled")
	// ErrOversizedOutcome marks a single outcome line over the 1 MiB
	// limit: a named diagnostic and a requeue, not a generic scanner break.
	ErrOversizedOutcome = errors.New("fleet: oversized outcome line")
	// ErrMismatchedOutcome marks a worker contradicting its own
	// classification of a rep within one stream: a determinism violation
	// that fails the dispatch loudly — silently preferring either answer
	// would bias the estimate.
	ErrMismatchedOutcome = errors.New("fleet: mismatched duplicate outcome (determinism violation)")
	// ErrPoisonShard marks a shard still failing when the dispatch rounds
	// ran out that then failed in the Local fallback too; it names the
	// distinct workers the shard failed on.
	ErrPoisonShard = errors.New("fleet: poison shard")
)

// defaultShardClient hardens the dispatch path that used to inherit
// http.DefaultClient: every pre-stream phase that can hang — dial, TLS,
// waiting for response headers — carries its own timeout. There is still
// deliberately no overall request timeout (streams are long-lived); the
// in-stream analogue is the Dispatcher's progress watchdog.
var defaultShardClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		ExpectContinueTimeout: time.Second,
		IdleConnTimeout:       90 * time.Second,
		MaxIdleConnsPerHost:   16,
	},
}

func (d *Dispatcher) emit(typ, msg string) {
	if d.Emit != nil {
		d.Emit(typ, msg)
	}
}

func (d *Dispatcher) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return defaultShardClient
}

// runRemote streams one shard job on one worker, feeding OnOutcome per
// line. It returns the reps the stream did not classify — empty on a
// clean done marker, the full remainder when the worker died mid-stream
// — plus the last attempt's error. An ErrMismatchedOutcome is terminal:
// it means the worker contradicted itself, and the caller must fail the
// dispatch rather than requeue.
func (d *Dispatcher) runRemote(ctx context.Context, w WorkerInfo, reps []int) ([]int, error) {
	// seen dedups and cross-checks outcomes across lines and retry
	// attempts: a rep re-streamed by a retried shard must carry the same
	// class (determinism), so a contradiction is detected right here at
	// the stream edge, before first-write-wins could bury it.
	seen := make(map[int]string, len(reps))
	var fatal error
	attempt := func() error {
		job := d.Job(reps)
		body, err := json.Marshal(job)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			w.Addr+"/fleet/run", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := d.client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fleet: worker %s returned %d", w.ID, resp.StatusCode)
		}

		// The progress watchdog: armed per line, not per stream, so a
		// slow-but-moving shard never trips it while a stalled-open
		// stream (worker wedged, connection healthy, heartbeats flowing)
		// is abandoned after one quiet window. Closing the body is the
		// only safe cross-goroutine abort: it makes the scanner return.
		// Built on a timer rather than wall-clock reads — there is no
		// time.Now here for merlinvet to object to.
		stall := d.StallTimeout
		if stall <= 0 {
			stall = DefaultStallTimeout
		}
		var stalled atomic.Bool
		dog := time.AfterFunc(stall, func() {
			stalled.Store(true)
			resp.Body.Close()
		})
		defer dog.Stop()

		maxLine := d.maxLine
		if maxLine == 0 {
			maxLine = 1 << 20
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, min(64*1024, maxLine)), maxLine)
		for sc.Scan() {
			dog.Reset(stall)
			var line streamLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("fleet: bad outcome line from %s: %w", w.ID, err)
			}
			if line.Done {
				if line.Err != "" {
					return fmt.Errorf("fleet: worker %s shard failed: %s", w.ID, line.Err)
				}
				if d.OnWork != nil && line.Work != nil {
					d.OnWork(line.Work)
				}
				return nil
			}
			o := line.Outcome
			if prev, ok := seen[o.Rep]; ok {
				if prev != o.Outcome {
					fatal = fmt.Errorf("%w: worker %s classified rep %d as %q, then %q",
						ErrMismatchedOutcome, w.ID, o.Rep, prev, o.Outcome)
					return fatal
				}
				continue // benign duplicate: same rep, same class
			}
			seen[o.Rep] = o.Outcome
			d.OnOutcome(o)
		}
		if stalled.Load() {
			return fmt.Errorf("%w: worker %s produced no outcome line for %v", ErrShardStall, w.ID, stall)
		}
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return fmt.Errorf("%w: worker %s exceeded the %d-byte line limit", ErrOversizedOutcome, w.ID, maxLine)
			}
			return fmt.Errorf("fleet: stream from %s broke: %w", w.ID, err)
		}
		return fmt.Errorf("fleet: stream from %s ended without done marker", w.ID)
	}

	attempts := d.attempts
	if attempts == 0 {
		attempts = 2
	}
	backoff := d.backoff
	if backoff == 0 {
		backoff = 200 * time.Millisecond
	}
	err := retry(ctx, attempts, backoff, func() error {
		if fatal != nil {
			return fatal // a determinism violation must not be retried away
		}
		return attempt()
	})
	var missing []int
	for _, rep := range reps {
		if _, ok := seen[rep]; !ok {
			missing = append(missing, rep)
		}
	}
	return missing, err
}

// runLocal executes reps in-process, serialized (the underlying campaign
// Runner parallelizes internally; two concurrent Local calls would only
// oversubscribe the host).
func (d *Dispatcher) runLocal(ctx context.Context, reps []int) error {
	d.localMu.Lock()
	defer d.localMu.Unlock()
	return d.Local(ctx, reps)
}

// shardState tracks one shard across dispatch rounds: the reps still
// unclassified and the distinct workers the shard has already failed on
// (what pickWorker skips and ErrPoisonShard counts).
type shardState struct {
	reps     []int
	failedOn map[string]bool
}

// pickWorker assigns shard i round-robin over alive, skipping workers
// the shard already failed on: a shard that killed worker A must gather
// evidence on B and C, not hammer A until the rounds run out.
func pickWorker(alive []WorkerInfo, failedOn map[string]bool, i int) WorkerInfo {
	for k := 0; k < len(alive); k++ {
		w := alive[(i+k)%len(alive)]
		if !failedOn[w.ID] {
			return w
		}
	}
	return alive[i%len(alive)]
}

// Run drives the shards to completion: each round assigns pending shards
// round-robin over the live workers and streams them concurrently; reps
// lost to a dead worker requeue into the next round, where the surviving
// workers pick them up (work-stealing). With no live workers — nobody
// ever joined, or everybody died or tripped the circuit breaker — the
// pending shards run in-process, so a coordinator alone degrades to
// exactly the single-node pipeline.
//
// A shard still failing when the rounds run out runs Local, and a Local
// failure there returns ErrPoisonShard: the shard kills workers and the
// in-process injector alike. A worker contradicting its own
// classification of a rep (ErrMismatchedOutcome) is a determinism
// violation: no requeue could be trusted afterwards, so the dispatch
// fails immediately.
func (d *Dispatcher) Run(ctx context.Context, shards [][]int) error {
	rounds := d.rounds
	if rounds == 0 {
		rounds = 3
	}
	pending := make([]*shardState, 0, len(shards))
	for _, reps := range shards {
		if len(reps) > 0 {
			pending = append(pending, &shardState{reps: reps, failedOn: make(map[string]bool)})
		}
	}
	for round := 0; len(pending) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		alive := d.Pool.Alive()
		if len(alive) == 0 || round >= rounds {
			for _, sh := range pending {
				d.emit("shard", fmt.Sprintf("%d reps running locally", len(sh.reps)))
				if err := d.runLocal(ctx, sh.reps); err != nil {
					if round < rounds || ctx.Err() != nil {
						return err
					}
					return fmt.Errorf("%w: %d reps failed on %d distinct workers over %d rounds and in the local fallback: %v",
						ErrPoisonShard, len(sh.reps), len(sh.failedOn), rounds, err)
				}
			}
			return nil
		}
		var mu sync.Mutex
		var next []*shardState
		var fatal error
		setFatal := func(err error) {
			mu.Lock()
			if fatal == nil {
				fatal = err
			}
			mu.Unlock()
		}
		var wg sync.WaitGroup
		for i, sh := range pending {
			w := pickWorker(alive, sh.failedOn, i)
			d.emit("shard", fmt.Sprintf("%d reps -> worker %s (round %d)", len(sh.reps), w.ID, round+1))
			wg.Add(1)
			go func(w WorkerInfo, sh *shardState) {
				defer wg.Done()
				missing, err := d.runRemote(ctx, w, sh.reps)
				if err == nil && len(missing) == 0 {
					d.Pool.NoteShardSuccess(w.ID)
					return
				}
				if errors.Is(err, ErrMismatchedOutcome) {
					setFatal(err)
					return
				}
				if err == nil {
					err = fmt.Errorf("fleet: worker %s sent a done marker with %d reps unclassified", w.ID, len(missing))
				}
				// The worker is suspect: drop it from the pool now instead
				// of waiting out the TTL, and feed the circuit breaker so
				// one that keeps heartbeating through repeated failures is
				// quarantined instead of re-admitted every round.
				d.Pool.NoteShardFailure(w.ID)
				d.Pool.Remove(w.ID)
				if len(missing) == 0 {
					return // everything classified before the stream broke
				}
				d.emit("requeue", fmt.Sprintf("worker %s lost %d reps: %v; requeueing", w.ID, len(missing), err))
				sh.reps = missing
				sh.failedOn[w.ID] = true
				mu.Lock()
				next = append(next, sh)
				mu.Unlock()
			}(w, sh)
		}
		wg.Wait()
		if fatal != nil {
			return fatal
		}
		pending = next
	}
	return nil
}
