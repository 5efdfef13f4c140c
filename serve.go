package merlin

// This file is the campaign service's pipeline adapter: it wires the
// batch API (StartBatch over the record's structure list → Batch.Run with
// a progress subscription, every structure injecting through fleet.go's
// outcome ledger) and the golden-run artifact cache into the
// pipeline-agnostic HTTP service of internal/server. cmd/merlind is a thin
// flag wrapper around Serve.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"merlin/internal/cpu"
	"merlin/internal/fleet"
	"merlin/internal/server"
)

// HTTP hardening knobs shared by the coordinator and worker listeners.
// ReadHeaderTimeout bounds how long a connection may dribble its request
// headers (the slowloris vector); IdleTimeout reclaims keep-alive
// connections. There is deliberately no WriteTimeout: event and shard
// streams are long-lived by design, and their liveness comes from
// cancellation and heartbeats instead.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 10 * time.Second
)

// Server is the long-running campaign service behind cmd/merlind: an
// HTTP+JSON API (POST /campaigns, GET /campaigns/{id}, DELETE
// /campaigns/{id}, streamed /campaigns/{id}/events, /batches as an alias
// of the same tree, /healthz, /statsz) over a fixed set of runners
// draining one bounded FIFO queue. A record's target is a structure list evaluated over
// one shared golden run ("structure" is the one-element shorthand).
// Records are cancellable — DELETE cancels queued and running submissions
// alike, covering every structure of the list — and may carry a
// per-request deadline. Construct with NewServer, or let Serve manage the
// whole lifecycle.
type Server = server.Server

// CampaignRequest is the wire form of one campaign submission.
type CampaignRequest = server.Request

// ServeOptions configures the campaign service.
type ServeOptions struct {
	// Cache is the golden-run artifact cache shared by every campaign
	// the service runs; nil disables caching (each campaign then repeats
	// its own golden run). Open one with OpenCache.
	Cache *Cache

	// SnapshotBudget bounds the in-memory snapshot cache that shares
	// checkpoint ladders (frozen machine snapshots) across concurrent and
	// repeat campaigns: the first forked campaign on a key freezes its
	// ladder into it as its walkers go, and later ones cut their walks at it,
	// whether or not the golden-artifact cache served them. <= 0 means the
	// default budget (512 MB).
	SnapshotBudget int64

	// Concurrency is how many records run at once, oldest first off one
	// FIFO queue, and QueueDepth the bound on pending records
	// (submissions beyond it get 429). Zero values take the server
	// defaults (4 / 256).
	Concurrency int
	QueueDepth  int
	// RetainFinished bounds how many finished campaigns (reports + event
	// logs) stay queryable; the oldest are evicted beyond it so a
	// long-running daemon's memory tracks load, not lifetime. 0 takes
	// the server default (1024).
	RetainFinished int
	// MaxEventsPerCampaign caps one campaign's in-memory event log: beyond
	// it the oldest quarter is dropped and streamers resuming into the
	// dropped range receive an explicit "truncated" marker. 0 takes the
	// server default (8192).
	MaxEventsPerCampaign int

	// Registry, when non-nil, makes campaign state durable: submissions,
	// checkpointed per-representative outcomes and terminal reports are
	// persisted, finished campaigns survive a daemon restart, and
	// interrupted ones resume from their last checkpoint instead of
	// restarting. Open one with OpenRegistry. Nil keeps the in-memory-only
	// behavior.
	Registry *CampaignRegistry

	// FleetTTL is the heartbeat liveness window for fleet workers joining
	// this daemon as a coordinator: a worker silent for longer stops
	// receiving shards. 0 means the default (10s); negative disables the
	// fleet endpoints entirely (pure single-process daemon). With no
	// workers joined the coordinator runs campaigns in-process exactly as
	// a single-node daemon would.
	FleetTTL time.Duration

	// FleetClient, when non-nil, replaces the dispatcher's hardened shard-
	// stream HTTP client — the chaos harness's injection point for
	// coordinator-side transfer faults.
	FleetClient *http.Client
	// FleetStallTimeout is the dispatcher's per-shard progress watchdog: a
	// worker stream producing no outcome line for this long is abandoned
	// and its remaining reps requeued, even while the worker heartbeats.
	// <= 0 means the default (2 minutes).
	FleetStallTimeout time.Duration
}

// NewServer starts the campaign service's runners and returns the
// service. Expose it over HTTP with (*Server).Handler; stop it with
// (*Server).Close.
func NewServer(opt ServeOptions) (*Server, error) {
	snapshots := NewSnapshotCache(opt.SnapshotBudget)
	// The pool always exists — the dispatcher degrades to in-process
	// execution on an empty one — but with the fleet disabled nothing can
	// join it, because its endpoints are never mounted.
	pool := fleet.NewPool(opt.FleetTTL)
	cfg := server.Config{
		Run:                  runCampaign(opt.Cache, snapshots, pool, opt.FleetClient, opt.FleetStallTimeout),
		Validate:             validateRequest(opt.Cache),
		Concurrency:          opt.Concurrency,
		QueueDepth:           opt.QueueDepth,
		RetainFinished:       opt.RetainFinished,
		MaxEventsPerCampaign: opt.MaxEventsPerCampaign,
		Stats: func() map[string]any {
			st := map[string]any{"snapshots": snapshots.Stats()}
			if opt.Cache != nil {
				st["cache"] = opt.Cache.Stats()
			}
			if opt.Registry != nil {
				st["registry"] = opt.Registry.Stats()
			}
			return st
		},
	}
	if opt.Registry != nil {
		cfg.Registry = registryAdapter{opt.Registry}
	}
	if opt.FleetTTL >= 0 {
		// Worker registration, heartbeats and the fleet listing.
		cfg.Routes = func(mux *http.ServeMux) { mux.Handle("/fleet/", pool.Handler()) }
	}
	return server.New(cfg)
}

// Serve runs the campaign service on addr until ctx is cancelled, then
// shuts down gracefully: the campaign service stops first (with a durable
// registry the in-flight campaigns checkpoint and stay resumable; without
// one they fail, as before), which completes every live event stream, and
// only then the HTTP listener drains under a deadline. The listener
// carries header-read and idle timeouts so a slowloris peer cannot pin
// connections open indefinitely.
func Serve(ctx context.Context, addr string, opt ServeOptions) error {
	srv, err := NewServer(opt)
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Order matters: closing the campaign service first terminates every
	// campaign and therefore every NDJSON event stream; shutting the
	// listener down first would leave Shutdown waiting out its whole drain
	// deadline behind streams that only end when the campaigns do.
	srv.Close()
	return drain(hs)
}

// drain shuts a listener down gracefully under the drain deadline; the
// coordinator and the worker share it.
func drain(hs *http.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return hs.Shutdown(ctx)
}

// requestOptions translates a wire request into StartBatch options,
// rejecting unknown names and negative knobs. The target is always a
// structure list: a request's single structure is its one-element form.
// The returned options do not include the progress subscription —
// runCampaign appends its own.
func requestOptions(req CampaignRequest, cache *Cache, snapshots *SnapshotCache) ([]Option, error) {
	names := req.Structures
	if len(names) == 0 {
		names = []string{req.Structure}
	}
	targets := make([]Structure, len(names))
	for i, name := range names {
		t, err := ParseStructure(name)
		if err != nil {
			return nil, err
		}
		targets[i] = t
	}
	opts := []Option{WithStructures(targets...)}
	if req.PhysRegs < 0 || req.SQEntries < 0 || req.L1DBytes < 0 {
		return nil, fmt.Errorf("core configuration knobs must be >= 0 (0 = paper baseline)")
	}
	cpuCfg := cpu.DefaultConfig()
	if req.PhysRegs > 0 {
		cpuCfg = cpuCfg.WithRF(req.PhysRegs)
	}
	if req.SQEntries > 0 {
		cpuCfg = cpuCfg.WithSQ(req.SQEntries)
	}
	if req.L1DBytes > 0 {
		cpuCfg = cpuCfg.WithL1D(req.L1DBytes)
	}
	// Zero faults, sampling parameters and workers, and nil caches, are the
	// documented "use the default" values of their options, so they pass
	// straight through.
	opts = append(opts,
		WithCPU(cpuCfg),
		WithSeed(req.Seed),
		WithFaults(req.Faults),
		WithSampling(req.Confidence, req.ErrorMargin),
		WithWorkers(req.Workers),
		WithCache(cache),
		WithSnapshotCache(snapshots),
	)
	if req.Strategy != "" {
		strat, err := ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithStrategy(strat))
	}
	return opts, nil
}

// validateRequest vets a submission synchronously — StartBatch performs
// the full option validation without simulating anything — so malformed
// campaigns fail the POST with 400 instead of failing later in the queue.
func validateRequest(cache *Cache) func(CampaignRequest) error {
	return func(req CampaignRequest) error {
		opts, err := requestOptions(req, cache, nil)
		if err != nil {
			return err
		}
		_, err = StartBatch(context.Background(), req.Workload, opts...)
		return err
	}
}

// runCampaign adapts the batch API to the service's RunFunc — the one run
// path of every record on every deployment: StartBatch over the record's
// structure list, its progress stream forwarded to the event log, every
// structure injecting through the outcome ledger (ledgerInjector: resumed
// from the job's checkpoint, sharded over whatever fleet workers are
// alive, in-process otherwise), its context wired to the service's
// per-record cancellation so one DELETE cancels the whole list. A
// cancelled record returns ctx.Err(), which the service records as the
// "cancelled" terminal state. All records share the process-wide snapshot
// cache, so repeat and concurrent campaigns (and the structures of one
// list) reuse one frozen checkpoint ladder instead of each rebuilding it.
func runCampaign(cache *Cache, snapshots *SnapshotCache, pool *fleet.Pool, client *http.Client, stall time.Duration) server.RunFunc {
	return func(ctx context.Context, job server.Job, emit func(CampaignEvent)) (any, error) {
		req := job.Request
		opts, err := requestOptions(req, cache, snapshots)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithProgress(emit))
		b, err := StartBatch(ctx, req.Workload, opts...)
		if err != nil {
			return nil, err
		}
		b.inject = ledgerInjector(job, emit, pool, client, stall)
		// On cancellation Run returns a partial report together with
		// ctx.Err(); both are handed to the service, which retains the
		// report on the cancelled record — the structures that finished
		// before the DELETE keep their results. A request that named a
		// single structure is answered with that structure's Report, a list
		// with the BatchReport. The explicit nil returns avoid wrapping a
		// typed nil pointer in the RunFunc's any.
		rep, err := b.Run(ctx)
		switch {
		case rep == nil:
			return nil, err
		case len(req.Structures) > 0:
			return rep, err
		case len(rep.Reports) == 0:
			return nil, err
		}
		return rep.Reports[0], err
	}
}
