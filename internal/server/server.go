// Package server implements the campaign service behind cmd/merlind: an
// HTTP+JSON API that accepts fault-injection campaigns, runs them on a
// fixed set of runners draining one bounded FIFO queue, and streams
// per-fault progress to clients while campaigns execute.
//
// The package is deliberately pipeline-agnostic: it knows how to queue,
// schedule, observe and serve campaigns, but the campaign itself is an
// injected RunFunc (the root merlin package wires in Preprocess → Reduce →
// injection, plus the golden-run artifact cache). That keeps the dependency
// direction clean — server never imports the simulator — and makes the
// scheduling and streaming machinery testable with synthetic pipelines.
//
// Endpoints (every /campaigns route is also registered under /batches —
// the two prefixes are pure aliases over one handler set, so any id
// resolves under either):
//
//	POST   /campaigns             submit a record: 202 + {"id": ...}, or 429
//	                              when the pending queue is full. The
//	                              target is a structure list: "structure" is
//	                              shorthand for a one-element "structures"
//	                              (exactly one of the two is required). Which
//	                              field the request used is kept as the
//	                              record's kind — "campaign" ids start with
//	                              c, "batch" ids with b — and decides the
//	                              report shape the pipeline returns
//	GET    /campaigns             list records of both kinds, newest first
//	GET    /campaigns/{id}        status, plus the report once finished
//	DELETE /campaigns/{id}        cancel a queued or running record (200;
//	                              409 once it already finished): a queued
//	                              one turns "cancelled" immediately, a
//	                              running one has its context cancelled —
//	                              covering every structure of its list — and
//	                              turns "cancelled" when its runner observes
//	                              it, freeing the runner for the next record
//	GET    /campaigns/{id}/events the record's event log as NDJSON,
//	                              following live progress until it finishes
//	                              (?from=N resumes after event N-1); fault
//	                              and per-structure phase events carry a
//	                              "structure" tag
//	GET    /healthz               liveness + campaign/batch counts
//	GET    /statsz                queue depth, record counts, pipeline stats
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Request is the wire form of one campaign submission (the JSON body of
// POST /campaigns and POST /batches). Zero fields mean "use the pipeline
// default"; negative values are rejected at submission time by the
// injected Validate hook. Unknown fields — including ones the service has
// removed — fail a POST with 400 and a restored queued or running record
// with "failed".
type Request struct {
	// Workload is the registered benchmark name (required).
	Workload string `json:"workload"`
	// Structure is the injection target: "RF", "SQ" or "L1D" — shorthand
	// for a one-element Structures, answered with a single report.
	Structure string `json:"structure,omitempty"`
	// Structures is the target list: one golden run shared across all of
	// them, each reported separately inside a batch report. Exactly one of
	// Structure and Structures must be set.
	Structures []string `json:"structures,omitempty"`

	// Faults sets the initial statistical fault list size; 0 derives it
	// from Confidence and ErrorMargin.
	Faults      int     `json:"faults,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
	ErrorMargin float64 `json:"error_margin,omitempty"`
	// Seed drives fault sampling.
	Seed int64 `json:"seed,omitempty"`

	// Workers bounds the campaign's injection parallelism.
	Workers int `json:"workers,omitempty"`
	// Strategy is "forked" (the default when empty) or "replay", the
	// several-times slower assumption-free reference; reports are
	// bit-identical either way.
	Strategy string `json:"strategy,omitempty"`

	// Core configuration knobs (paper Table 1 sweep points); 0 keeps the
	// baseline configuration.
	PhysRegs  int `json:"phys_regs,omitempty"`
	SQEntries int `json:"sq_entries,omitempty"`
	L1DBytes  int `json:"l1d_bytes,omitempty"`

	// DeadlineMS, when > 0, bounds the campaign's execution time: its
	// context is cancelled DeadlineMS milliseconds after it starts
	// running (queue wait does not count), and the campaign fails with a
	// deadline-exceeded error. 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Event is one entry of a campaign's progress log. Seq is dense and
// per-campaign, so streams resume exactly with ?from=N.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "queued", "started", "preprocess", "reduce", "fault",
	// "inject", "batch", "done", "failed", "cancelled" — plus "baseline",
	// which is library-only (Session.Baseline's done event; no record
	// runs a baseline), and the durability and fleet lifecycle
	// markers: "resumed" (re-enqueued from
	// the registry after a restart), "restored" (terminal record reloaded
	// from the registry), "interrupted" (shutdown left the record
	// resumable), "truncated" (synthetic: the stream's ?from fell into the
	// ring buffer's dropped range), and the injection ledger's "shard"
	// (a group of representatives assigned to a worker or run locally) /
	// "requeue" (work stolen back from a lost worker) markers.
	Type string `json:"type"`
	// Structure tags the event with the structure it belongs to ("RF",
	// "SQ", "L1D"). Batch campaigns interleave several structures in one
	// event log, so per-fault and per-structure phase events carry it;
	// batch-level events (the shared preprocess, the batch summary) and
	// lifecycle events do not.
	Structure string `json:"structure,omitempty"`
	// Msg is a human-readable summary (phase events).
	Msg string `json:"msg,omitempty"`

	// Fault events: the fault's index in the injected list, its
	// description, and its outcome class. Index is set on fault events
	// only, so index 0 still serializes and no other event carries it.
	Index   *int   `json:"index,omitempty"`
	Fault   string `json:"fault,omitempty"`
	Outcome string `json:"outcome,omitempty"`

	// Preprocess events: whether the golden-run artifact cache served
	// this campaign.
	CacheHit *bool `json:"cache_hit,omitempty"`

	// Inject and baseline events: whether the shared snapshot cache
	// served the checkpoint ladder (false on a miss, where the campaign's
	// walkers froze the ladder as they went), and the campaign's effective
	// simulation throughput in cycles per wall-clock second.
	SnapshotHit  *bool   `json:"snapshot_hit,omitempty"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// Job is one unit of work handed to the RunFunc: the submitted request
// plus the durable-execution context a resumable pipeline needs.
type Job struct {
	// ID identifies the record.
	ID string
	// Request is the submission being executed.
	Request Request

	// Resume carries the outcomes already classified by a previous
	// incarnation of this campaign (representative index → fault-effect
	// class name), checkpointed through Checkpoint before a restart or
	// worker loss. Empty on a fresh campaign. Pipelines that cannot skip
	// finished work may ignore it — re-deriving the same outcomes is
	// correct by determinism, just slower.
	Resume map[int]string

	// Checkpoint, never nil, merges one newly classified outcome (key as
	// in Resume) into the record's durable state. The server persists the
	// outcomes (throttled) through its registry when one is configured, so
	// a crashed or restarted coordinator resumes from the last checkpoint
	// instead of restarting. Safe for concurrent use.
	Checkpoint func(key int, outcome string)
}

// RunFunc executes one campaign: it returns the JSON-marshalable report,
// emitting progress events along the way. emit is safe for concurrent use
// and may be called from any goroutine until RunFunc returns. ctx is the
// campaign's own context: it is cancelled when the server shuts down,
// when the campaign is cancelled via DELETE, or when its per-request
// deadline expires — a RunFunc should observe it and return ctx.Err()
// promptly (cancelled campaigns whose RunFunc returns a context error are
// recorded with the "cancelled" terminal status; a non-nil report
// returned together with that error is retained as the record's partial
// report).
type RunFunc func(ctx context.Context, job Job, emit func(Event)) (any, error)

// Record is the durable wire form of one campaign: everything a
// restarted server needs to restore a finished record or resume an
// interrupted one. Request and Report are the JSON encodings of the
// in-memory forms; Outcomes is the per-representative checkpoint. The
// field set is deliberately struct-identical to store.CampaignRecord so
// the daemon's adapter is a plain Go struct conversion.
type Record struct {
	ID        string
	Kind      string
	Status    string
	Request   []byte
	Report    []byte
	Error     string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Outcomes  map[int]string
}

// Registry persists campaign records across server restarts. Put
// replaces the record of the same ID; List returns every readable record;
// Delete is idempotent. Implementations must be safe for concurrent use.
// The server treats the registry as best-effort: a persistence failure
// never fails the campaign it records.
type Registry interface {
	Put(Record) error
	List() ([]Record, error)
	Delete(id string) error
}

// Config configures a Server. Run is required; everything else defaults.
type Config struct {
	// Run executes campaigns (required).
	Run RunFunc
	// Validate, when non-nil, vets a request at submission time so
	// malformed campaigns are rejected with 400 instead of failing
	// asynchronously in the queue.
	Validate func(Request) error
	// Stats, when non-nil, is merged key by key into GET /statsz (the
	// daemon passes "cache", "snapshots" and "registry").
	Stats func() map[string]any

	// Routes, when non-nil, is called with the service mux so the daemon
	// can mount extra endpoint trees — the fleet coordinator's /fleet/*
	// registration routes — on the same listener. The server stays pipeline-agnostic: it only
	// lends out the mux.
	Routes func(mux *http.ServeMux)

	// Registry, when non-nil, makes campaign state durable: every record
	// transition (queued, running, checkpointed outcomes, terminal) is
	// persisted, and New restores the registry's contents — finished
	// records become queryable again, interrupted ones are re-enqueued
	// with their checkpointed outcomes so they resume instead of
	// restarting. Without it the server keeps today's in-memory-only
	// behavior, including marking shutdown-interrupted campaigns failed.
	Registry Registry

	// Concurrency is the number of records the server runs at once, in
	// submission order off one FIFO queue (each record additionally
	// parallelizes its own injections). 0 means DefaultConcurrency;
	// negative values are rejected by New.
	Concurrency int
	// QueueDepth is the bound on pending (accepted, not yet running)
	// records; submissions beyond it are refused with 429 so load sheds at
	// the edge instead of accumulating unbounded memory. 0 means
	// DefaultQueueDepth; negative values are rejected by New.
	QueueDepth int
	// RetainFinished bounds how many finished (done or failed) campaigns
	// — records, reports and event logs — stay queryable: the oldest are
	// evicted on submission once the bound is exceeded, keeping a
	// long-running daemon's memory proportional to its active load, not
	// its lifetime. Clients already streaming an evicted campaign's
	// events are unaffected. 0 means DefaultRetainFinished; negative
	// values are rejected by New.
	RetainFinished int
	// MaxEventsPerCampaign caps one record's in-memory event log: beyond
	// it the oldest quarter is dropped (a ring buffer, so a million-fault
	// campaign does not pin a million events in RAM), streamers resuming
	// into the dropped range receive an explicit "truncated" marker, and
	// the status reports how many events were dropped. 0 means
	// DefaultMaxEvents; negative values are rejected by New.
	MaxEventsPerCampaign int
}

// Defaults for Config.
const (
	DefaultConcurrency    = 4
	DefaultQueueDepth     = 256
	DefaultRetainFinished = 1024
	DefaultMaxEvents      = 8192
)

// checkpointInterval throttles durable checkpoint writes: the first
// checkpoint of a campaign persists immediately (so short campaigns are
// resumable at all), later ones at most this often.
const checkpointInterval = 500 * time.Millisecond

// status values of a campaign.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// terminal reports whether a status is final (no runner will touch the
// campaign again and its event log is complete).
func terminalStatus(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// Kinds of record. Kind is data, not routing: it records which target
// field the request used (Structure → campaign, Structures → batch),
// picks the id prefix, and tells clients which report shape to expect.
const (
	KindCampaign = "campaign"
	KindBatch    = "batch"
)

// campaign is the server-side record of one submission (single campaign
// or batch).
type campaign struct {
	id        string
	kind      string
	req       Request
	submitted time.Time

	mu       sync.Mutex
	status   string
	started  time.Time
	finished time.Time
	// events is the retained tail of the log: entry i carries sequence
	// number firstSeq+i. Once the log exceeds maxEvents the oldest
	// quarter is dropped (dropped counts them), so a million-fault
	// campaign does not pin a million events in RAM.
	events    []Event
	firstSeq  int
	dropped   int
	maxEvents int
	report    any
	errMsg    string
	// outcomes is the durable per-representative checkpoint (index in the
	// reduced fault list → fault-effect class name), merged by the
	// RunFunc's Job.Checkpoint and persisted through the registry.
	outcomes map[int]string
	notify   chan struct{} // closed and replaced on every event append
	// cancel aborts the running campaign's context; set by the runner
	// while the campaign runs. cancelRequested records that a DELETE
	// asked for cancellation, distinguishing a user-cancelled campaign
	// from one interrupted by server shutdown.
	cancel          context.CancelFunc
	cancelRequested bool
}

// appendLocked stamps and stores one event, rotates the ring when the log
// exceeds its cap, and wakes all streamers. The caller holds c.mu.
func (c *campaign) appendLocked(ev Event) {
	ev.Seq = c.firstSeq + len(c.events)
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	c.events = append(c.events, ev)
	if c.maxEvents > 0 && len(c.events) > c.maxEvents {
		// Drop the oldest quarter in one slide so the amortized cost per
		// append stays O(1); zero the vacated tail so dropped events
		// release whatever they reference.
		drop := len(c.events) / 4
		if drop < 1 {
			drop = 1
		}
		n := copy(c.events, c.events[drop:])
		for i := n; i < len(c.events); i++ {
			c.events[i] = Event{}
		}
		c.events = c.events[:n]
		c.firstSeq += drop
		c.dropped += drop
	}
	close(c.notify)
	c.notify = make(chan struct{})
}

// append is appendLocked behind the campaign's own lock.
func (c *campaign) append(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appendLocked(ev)
}

// finishLocked records the campaign's terminal state and its final event
// as one transition: streamers that observe a terminal status are
// guaranteed the event log is already complete. The caller holds c.mu.
func (c *campaign) finishLocked(status string, report any, errMsg string, ev Event) {
	c.finished = time.Now()
	c.status = status
	c.report = report
	c.errMsg = errMsg
	c.appendLocked(ev)
}

// finish is finishLocked behind the campaign's own lock.
func (c *campaign) finish(status string, report any, errMsg string, ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked(status, report, errMsg, ev)
}

// snapshot returns the events from sequence number `from` on, the cursor
// to resume from next, the current status, and a channel closed at the
// next append (for blocking streamers). A `from` that falls into the
// ring's dropped range yields a synthetic "truncated" event naming the
// gap, then the retained tail — a resuming client learns it missed
// events instead of silently skipping them.
func (c *campaign) snapshot(from int) ([]Event, int, string, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var evs []Event
	if from < c.firstSeq {
		evs = append(evs, Event{
			Seq:  from,
			Time: time.Now(),
			Type: "truncated",
			Msg:  fmt.Sprintf("events %d..%d dropped (log capped at %d)", from, c.firstSeq-1, c.maxEvents),
		})
		from = c.firstSeq
	}
	if idx := from - c.firstSeq; idx < len(c.events) {
		evs = append(evs, c.events[idx:]...)
	}
	next := c.firstSeq + len(c.events)
	if next < from {
		next = from // asked beyond the end: nothing to skip yet
	}
	return evs, next, c.status, c.notify
}

// Server is the campaign service. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg    Config
	start  time.Time
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	queue chan *campaign // pending records, FIFO; capacity is Config.QueueDepth

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // submission order, for listing
	nextID    uint64
}

// New validates cfg, applies defaults, and starts the runners.
func New(cfg Config) (*Server, error) {
	if cfg.Run == nil {
		return nil, fmt.Errorf("server: Config.Run is required")
	}
	switch {
	case cfg.Concurrency < 0:
		return nil, fmt.Errorf("server: Concurrency is %d; want >= 0 (0 = %d)", cfg.Concurrency, DefaultConcurrency)
	case cfg.QueueDepth < 0:
		return nil, fmt.Errorf("server: QueueDepth is %d; want >= 0 (0 = %d)", cfg.QueueDepth, DefaultQueueDepth)
	case cfg.RetainFinished < 0:
		return nil, fmt.Errorf("server: RetainFinished is %d; want >= 0 (0 = %d)", cfg.RetainFinished, DefaultRetainFinished)
	case cfg.MaxEventsPerCampaign < 0:
		return nil, fmt.Errorf("server: MaxEventsPerCampaign is %d; want >= 0 (0 = %d)", cfg.MaxEventsPerCampaign, DefaultMaxEvents)
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = DefaultConcurrency
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetainFinished == 0 {
		cfg.RetainFinished = DefaultRetainFinished
	}
	if cfg.MaxEventsPerCampaign == 0 {
		cfg.MaxEventsPerCampaign = DefaultMaxEvents
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		queue:     make(chan *campaign, cfg.QueueDepth),
		campaigns: make(map[string]*campaign),
	}
	// Restore before the runners start, so re-enqueued campaigns cannot
	// race a runner observing a half-restored map.
	if cfg.Registry != nil {
		s.restore()
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// recSeq extracts the numeric suffix of a record id ("c000042" → 42) so
// restore can continue the id sequence and rebuild submission order; 0
// for ids the server did not mint.
func recSeq(id string) uint64 {
	if len(id) < 2 {
		return 0
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// restore reloads the durable registry into the in-memory map: terminal
// records become queryable again (report and error intact, a synthetic
// "restored" event standing in for the log), queued and running records
// are re-enqueued as queued with their checkpointed outcomes — a
// coordinator restart resumes in-flight campaigns instead of forgetting
// them. Unreadable records were already skipped by the registry; a
// queued or running record whose request no longer decodes as a Request
// (a field the service has since removed) or that no longer fits the
// queue fails visibly rather than silently re-running without the field
// or vanishing.
func (s *Server) restore() {
	recs, err := s.cfg.Registry.List()
	if err != nil {
		return
	}
	// Ids are minted from one shared counter, so numeric suffix order is
	// submission order across kinds.
	sort.Slice(recs, func(i, j int) bool { return recSeq(recs[i].ID) < recSeq(recs[j].ID) })
	for _, rec := range recs {
		if rec.ID == "" || (rec.Kind != KindCampaign && rec.Kind != KindBatch) {
			continue
		}
		if n := recSeq(rec.ID); n > s.nextID {
			s.nextID = n
		}
		// Decoded as strictly as a POST body. Known fields are filled even
		// when an unknown one fails the decode, so a terminal record
		// restores regardless (a zero request still restores its shell).
		var req Request
		dec := json.NewDecoder(bytes.NewReader(rec.Request))
		dec.DisallowUnknownFields()
		decErr := dec.Decode(&req)
		c := &campaign{
			id:        rec.ID,
			kind:      rec.Kind,
			req:       req,
			submitted: rec.Submitted,
			started:   rec.Started,
			maxEvents: s.cfg.MaxEventsPerCampaign,
			errMsg:    rec.Error,
			notify:    make(chan struct{}),
		}
		if len(rec.Outcomes) > 0 {
			c.outcomes = make(map[int]string, len(rec.Outcomes))
			for k, v := range rec.Outcomes {
				c.outcomes[k] = v
			}
		}
		s.campaigns[rec.ID] = c
		s.order = append(s.order, rec.ID)
		if terminalStatus(rec.Status) {
			c.status = rec.Status
			c.finished = rec.Finished
			if len(rec.Report) > 0 {
				c.report = json.RawMessage(rec.Report)
			}
			c.appendLocked(Event{Type: "restored",
				Msg: fmt.Sprintf("restored from registry (%s)", rec.Status)})
			continue
		}
		if decErr != nil {
			msg := "restore: " + decErr.Error()
			c.finishLocked(StatusFailed, nil, msg, Event{Type: "failed", Msg: msg})
			s.persist(c)
			continue
		}
		// Queued or interrupted mid-run: back to the queue, carrying the
		// checkpoint so the rerun resumes where the old process stopped.
		c.status = StatusQueued
		c.appendLocked(Event{Type: "resumed",
			Msg: fmt.Sprintf("resumed after restart (%d outcomes checkpointed)", len(c.outcomes))})
		select {
		case s.queue <- c:
		default:
			c.finishLocked(StatusFailed, nil, "restore: queue full",
				Event{Type: "failed", Msg: "restore: queue full"})
			s.persist(c)
		}
	}
}

// persist writes the campaign's current state through the registry,
// best-effort: a persistence failure must never fail the campaign it
// records. No-op without a registry.
func (s *Server) persist(c *campaign) {
	if s.cfg.Registry == nil {
		return
	}
	c.mu.Lock()
	rec := Record{
		ID:        c.id,
		Kind:      c.kind,
		Status:    c.status,
		Error:     c.errMsg,
		Submitted: c.submitted,
		Started:   c.started,
		Finished:  c.finished,
	}
	if b, err := json.Marshal(c.req); err == nil {
		rec.Request = b
	}
	if c.report != nil {
		if raw, ok := c.report.(json.RawMessage); ok {
			rec.Report = raw
		} else if b, err := json.Marshal(c.report); err == nil {
			rec.Report = b
		}
	}
	if len(c.outcomes) > 0 {
		rec.Outcomes = make(map[int]string, len(c.outcomes))
		for k, v := range c.outcomes {
			rec.Outcomes[k] = v
		}
	}
	c.mu.Unlock()
	s.cfg.Registry.Put(rec)
}

// Close stops accepting campaigns, cancels the run context, and waits for
// the runners to drain. Queued-but-unstarted campaigns stay "queued".
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// runner runs campaigns off the queue, oldest first, until shutdown.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case c := <-s.queue:
			s.run(c)
		}
	}
}

// run executes one campaign, converting RunFunc panics into failures so a
// pipeline bug cannot take down the whole service. Each campaign gets its
// own context derived from the server's: DELETE cancels it, and a
// per-request deadline bounds it from the moment execution starts.
func (s *Server) run(c *campaign) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	if ms := c.req.DeadlineMS; ms > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	c.mu.Lock()
	if c.status != StatusQueued { // cancelled while queued
		c.mu.Unlock()
		return
	}
	c.status = StatusRunning
	c.started = time.Now()
	c.cancel = cancel
	var resume map[int]string
	if len(c.outcomes) > 0 {
		resume = make(map[int]string, len(c.outcomes))
		for k, v := range c.outcomes {
			resume[k] = v
		}
	}
	c.mu.Unlock()
	c.append(Event{Type: "started", Msg: fmt.Sprintf("campaign %s running", c.id)})
	s.persist(c)

	// Checkpoint merges a classified outcome into the record and persists
	// the record, throttled so a fast campaign does not turn every fault
	// into a disk write; the first checkpoint lands immediately so even
	// short campaigns are resumable.
	var ckptMu sync.Mutex
	var lastPersist time.Time
	job := Job{
		ID:      c.id,
		Request: c.req,
		Resume:  resume,
		Checkpoint: func(key int, outcome string) {
			c.mu.Lock()
			if c.outcomes == nil {
				c.outcomes = make(map[int]string)
			}
			c.outcomes[key] = outcome
			c.mu.Unlock()
			if s.cfg.Registry == nil {
				return
			}
			ckptMu.Lock()
			now := time.Now()
			if !lastPersist.IsZero() && now.Sub(lastPersist) < checkpointInterval {
				ckptMu.Unlock()
				return
			}
			lastPersist = now
			ckptMu.Unlock()
			s.persist(c)
		},
	}

	report, err := func() (report any, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("campaign panicked: %v", p)
			}
		}()
		return s.cfg.Run(ctx, job, c.append)
	}()

	c.mu.Lock()
	cancelled := c.cancelRequested
	c.cancel = nil
	c.mu.Unlock()

	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case err == nil:
		// A cancel that raced with completion loses: the report exists.
		c.finish(StatusDone, report, "", Event{Type: "done"})
	case cancelled && ctxErr:
		// Only a genuine context error counts as the requested
		// cancellation; a pipeline failure that raced with the DELETE
		// must still surface as "failed" below. A partial report returned
		// alongside the context error is kept — for a batch, the finished
		// structures' results survive the DELETE.
		c.finish(StatusCancelled, report, err.Error(),
			Event{Type: "cancelled", Msg: "campaign cancelled: " + err.Error()})
	case !cancelled && ctxErr && s.ctx.Err() != nil && s.cfg.Registry != nil:
		// Server shutdown with a durable registry: no terminal
		// transition. The record stays "running" on disk with its latest
		// checkpoint, so the next incarnation re-enqueues and resumes it.
		c.append(Event{Type: "interrupted",
			Msg: "server shutting down; campaign resumes on restart"})
	case !cancelled && errors.Is(err, context.DeadlineExceeded) && c.req.DeadlineMS > 0:
		msg := fmt.Sprintf("deadline of %dms exceeded", c.req.DeadlineMS)
		c.finish(StatusFailed, nil, msg, Event{Type: "failed", Msg: msg})
	default:
		c.finish(StatusFailed, nil, err.Error(), Event{Type: "failed", Msg: err.Error()})
	}
	s.persist(c)
}

// Submit enqueues a record and returns its id. The record runs as one
// cancellable unit — a single runner, a single event log interleaving
// every structure of its list — and Submit fails fast with ErrQueueFull
// when the pending queue is at capacity.
func (s *Server) Submit(req Request) (string, error) {
	if (req.Structure != "") == (len(req.Structures) > 0) {
		return "", &badRequestError{fmt.Errorf("want exactly one of structure and structures")}
	}
	if req.DeadlineMS < 0 {
		return "", &badRequestError{fmt.Errorf("deadline_ms is %d; want >= 0 (0 = no deadline)", req.DeadlineMS)}
	}
	if s.cfg.Validate != nil {
		if err := s.cfg.Validate(req); err != nil {
			return "", &badRequestError{err}
		}
	}
	if s.ctx.Err() != nil {
		return "", errShuttingDown
	}

	kind, prefix := KindCampaign, "c"
	if len(req.Structures) > 0 {
		kind, prefix = KindBatch, "b"
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("%s%06d", prefix, s.nextID)
	c := &campaign{
		id:        id,
		kind:      kind,
		req:       req,
		submitted: time.Now(),
		status:    StatusQueued,
		maxEvents: s.cfg.MaxEventsPerCampaign,
		notify:    make(chan struct{}),
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	evicted := s.evictFinishedLocked()
	s.mu.Unlock()
	s.unregister(evicted)

	// The queued event precedes the enqueue so no runner can emit
	// "started" ahead of it.
	c.append(Event{Type: "queued"})
	select {
	case s.queue <- c:
	default:
		s.mu.Lock()
		delete(s.campaigns, id)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	// Persisted only after the enqueue succeeded: a 429'd submission must
	// not reappear on restart.
	s.persist(c)
	return id, nil
}

// unregister removes evicted records from the durable registry so disk
// usage tracks the retention bound like memory does.
func (s *Server) unregister(ids []string) {
	if s.cfg.Registry == nil {
		return
	}
	for _, id := range ids {
		s.cfg.Registry.Delete(id)
	}
}

// evictFinishedLocked drops the oldest finished campaigns beyond the
// RetainFinished bound, keeping a long-running daemon's memory bounded,
// and returns the evicted ids so the caller can drop their registry
// records too. Queued and running campaigns are never evicted; streamers
// holding an evicted campaign's pointer keep reading it unaffected.
// Caller holds s.mu.
func (s *Server) evictFinishedLocked() []string {
	terminal := func(c *campaign) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return terminalStatus(c.status)
	}
	finished := 0
	for _, c := range s.campaigns {
		if terminal(c) {
			finished++
		}
	}
	excess := finished - s.cfg.RetainFinished
	if excess <= 0 {
		return nil
	}
	var evicted []string
	kept := s.order[:0]
	for _, id := range s.order {
		if c := s.campaigns[id]; excess > 0 && c != nil && terminal(c) {
			delete(s.campaigns, id)
			evicted = append(evicted, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return evicted
}

// ErrQueueFull is returned (and served as 429) when the bounded pending
// queue cannot take another campaign.
var ErrQueueFull = fmt.Errorf("server: campaign queue full, retry later")

// errShuttingDown is returned (and served as 503) once Close has begun: a
// submission then has no runner to take it, but the next incarnation will.
var errShuttingDown = errors.New("server: shutting down, retry later")

// badRequestError marks a submission-time validation failure (served 400).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// get looks up a campaign by id.
func (s *Server) get(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// statusJSON is the wire form of GET /campaigns/{id} (and the per-entry
// form of GET /campaigns).
type statusJSON struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Status    string    `json:"status"`
	Request   Request   `json:"request"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Events    int       `json:"events"`
	// DroppedEvents counts log entries the ring buffer discarded; a
	// streamer resuming into that range receives a "truncated" marker.
	DroppedEvents int `json:"dropped_events,omitempty"`
	// Checkpointed counts the per-representative outcomes checkpointed so
	// far, over every structure of the record's list.
	Checkpointed int    `json:"checkpointed,omitempty"`
	Report       any    `json:"report,omitempty"`
	Error        string `json:"error,omitempty"`
}

func (c *campaign) statusJSON(withReport bool) statusJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := statusJSON{
		ID:            c.id,
		Kind:          c.kind,
		Status:        c.status,
		Request:       c.req,
		Submitted:     c.submitted,
		Started:       c.started,
		Finished:      c.finished,
		Events:        c.firstSeq + len(c.events),
		DroppedEvents: c.dropped,
		Checkpointed:  len(c.outcomes),
		Error:         c.errMsg,
	}
	if withReport {
		st.Report = c.report
	}
	return st
}

// Handler returns the service's HTTP handler: one handler set — submit,
// list, status, cancel, event streaming — registered under /campaigns and,
// as a pure alias, under /batches.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	for _, tree := range []string{"/campaigns", "/batches"} {
		mux.HandleFunc("POST "+tree, s.handleSubmit)
		mux.HandleFunc("GET "+tree, s.handleList)
		mux.HandleFunc("GET "+tree+"/{id}", s.handleStatus)
		mux.HandleFunc("DELETE "+tree+"/{id}", s.handleCancel)
		mux.HandleFunc("GET "+tree+"/{id}/events", s.handleEvents)
	}
	if s.cfg.Routes != nil {
		s.cfg.Routes(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// countByStatus snapshots how many records of each kind sit in each
// state, in one pass over the records (healthz/statsz scrapers should
// not double the lock churn of the submit path).
func (s *Server) countByStatus() map[string]map[string]int {
	counts := map[string]map[string]int{KindCampaign: {}, KindBatch: {}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.campaigns {
		c.mu.Lock()
		counts[c.kind][c.status]++
		c.mu.Unlock()
	}
	return counts
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := s.countByStatus()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"campaigns":      counts[KindCampaign],
		"batches":        counts[KindBatch],
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	counts := s.countByStatus()
	stats := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"concurrency":    s.cfg.Concurrency,
		"queue_capacity": s.cfg.QueueDepth,
		"queue_depth":    len(s.queue),
		"campaigns":      counts[KindCampaign],
		"batches":        counts[KindBatch],
	}
	if s.cfg.Stats != nil {
		for k, v := range s.cfg.Stats() {
			stats[k] = v
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	id, err := s.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case err == errShuttingDown:
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		code := http.StatusInternalServerError
		var bad *badRequestError
		if errors.As(err, &bad) {
			code = http.StatusBadRequest
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// Ids are minted from one counter shared by both kinds, so reversed
	// submission order is newest first by numeric id.
	s.mu.Lock()
	out := make([]statusJSON, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.campaigns[s.order[i]].statusJSON(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": ErrUnknownCampaign.Error()})
		return
	}
	writeJSON(w, http.StatusOK, c.statusJSON(true))
}

// ErrFinished is returned by Cancel (and served as 409) when the campaign
// already reached a terminal state.
var ErrFinished = fmt.Errorf("server: campaign already finished")

// ErrUnknownCampaign is returned by Cancel (and served as 404) for ids
// the server does not know.
var ErrUnknownCampaign = fmt.Errorf("server: unknown campaign")

// Cancel cancels a campaign. A queued campaign becomes "cancelled"
// immediately (the runner that dequeues it will skip it); a running
// campaign has its context cancelled and reaches "cancelled" once its
// RunFunc observes the cancellation and returns, freeing the runner. Cancelling an
// already-finished campaign returns ErrFinished.
func (s *Server) Cancel(id string) (status string, err error) {
	c, ok := s.get(id)
	if !ok {
		return "", ErrUnknownCampaign
	}
	c.mu.Lock()
	switch {
	case terminalStatus(c.status):
		c.mu.Unlock()
		return "", ErrFinished
	case c.status == StatusQueued:
		// Terminal immediately: the runner checks the status on dequeue
		// and skips cancelled campaigns, so no run will start.
		c.cancelRequested = true
		c.finishLocked(StatusCancelled, nil, "cancelled while queued",
			Event{Type: "cancelled", Msg: "campaign cancelled before start"})
		c.mu.Unlock()
		s.persist(c)
		return StatusCancelled, nil
	default: // running
		c.cancelRequested = true
		if c.cancel != nil {
			c.cancel()
		}
		c.mu.Unlock()
		return "cancelling", nil
	}
}

// handleCancel serves DELETE /campaigns/{id}: 200 with the resulting
// status for queued ("cancelled") and running ("cancelling", terminal
// "cancelled" follows once the runner unwinds) records, 409 for finished
// ones, 404 for unknown ids. The record's one context covers every
// structure of its list, so finished structures keep their reports and the
// rest never inject.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, err := s.Cancel(id)
	switch err {
	case nil:
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": status})
	case ErrUnknownCampaign:
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case ErrFinished:
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// handleEvents streams a record's event log as NDJSON: everything
// already recorded, then live events as they happen, closing once the
// record reaches a terminal state (or the client goes away). Logs
// interleave all structures of the record's list; each fault/phase event
// carries its "structure" tag so clients can demultiplex.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": ErrUnknownCampaign.Error()})
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "from must be a non-negative integer"})
			return
		}
		from = n
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for {
		evs, next, status, more := c.snapshot(from)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
		}
		from = next
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		// finish() records the terminal status and the final event
		// atomically, so a drained log plus terminal status means the
		// stream is complete.
		if terminalStatus(status) {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}
