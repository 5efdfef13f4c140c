// Command merlind is the MeRLiN campaign service: a long-running daemon
// that accepts fault-injection campaigns over an HTTP+JSON API, runs up to
// -concurrency of them at once off one bounded FIFO queue, streams
// per-fault progress to clients, and amortizes golden runs across campaigns (and across
// daemon restarts) through the on-disk golden-run artifact cache.
//
// Start it and submit a campaign:
//
//	merlind -addr :7411 -cache ./merlind-cache &
//	curl -s localhost:7411/healthz
//	curl -s -X POST localhost:7411/campaigns \
//	    -d '{"workload":"qsort","structure":"RF","faults":2000}'
//	curl -s localhost:7411/campaigns/c000001            # status + report
//	curl -sN localhost:7411/campaigns/c000001/events    # live NDJSON progress
//	curl -s -X DELETE localhost:7411/campaigns/c000001  # cancel queued or running
//	curl -s localhost:7411/statsz                       # queues + cache hits/misses
//
// A record's target is a structure list: "structure" is shorthand for a
// one-element "structures". A list evaluates one workload across several
// structures over a single shared golden run (one profiling pass, one
// artifact, one checkpoint ladder), streams structure-tagged events and is
// answered with a batch report; DELETE cancels the whole list. /batches is
// a pure alias of /campaigns — any id resolves under either prefix:
//
//	curl -s -X POST localhost:7411/batches \
//	    -d '{"workload":"qsort","structures":["RF","SQ","L1D"],"faults":2000}'
//	curl -s localhost:7411/batches/b000002              # status + batch report
//	curl -sN localhost:7411/batches/b000002/events      # NDJSON tagged by structure
//	curl -s -X DELETE localhost:7411/batches/b000002    # cancel all structures
//
// Campaigns that share (workload, core config, structure set) reuse one
// golden run: the first campaign pays for Preprocess, every later one —
// different fault budget, seed or strategy — skips it entirely.
//
// Campaigns are first-class, interruptible objects: DELETE cancels a
// queued campaign instantly and stops a running one between injections
// (terminal status "cancelled", its runner freed), and a submission may
// carry "deadline_ms" to bound its execution time.
//
// Every record runs one path on every deployment: each structure's
// representatives are classified through an outcome ledger that resumes
// from the record's checkpoint, shards the remainder across whatever fleet
// workers joined this daemon, runs them in-process when none did, and
// merges the streamed outcomes. With -registry the record state is
// persisted, so a restart resumes in-flight records — single structures and
// lists alike — from their last checkpoint. Workers are the same binary
// pointed at a coordinator with -join:
//
//	merlind -addr :7411 -registry ./merlind-registry &      # coordinator
//	merlind -addr :7412 -join http://localhost:7411 &
//	merlind -addr :7413 -join http://localhost:7411 &
//	curl -s localhost:7411/fleet/workers                    # the fleet
//
// A worker is a pure injection executor: each shard job carries the
// campaign configuration, the golden reference and its faults, so a worker
// keeps no artifact cache (-cache is a coordinator flag) and runs no golden
// run. One lost mid-campaign has its unfinished fault groups requeued onto
// survivors.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"

	"merlin"
)

func main() {
	var (
		addr      = flag.String("addr", ":7411", "listen address")
		cache     = flag.String("cache", "merlind-cache", "golden-run artifact cache directory (coordinator; empty disables caching)")
		conc      = flag.Int("concurrency", 0, "campaigns run at once, oldest first (0 = default 4)")
		queue     = flag.Int("queue", 0, "pending-campaign bound, beyond which submissions get 429 (0 = default 256)")
		retain    = flag.Int("retain", 0, "finished campaigns kept queryable before the oldest are evicted (0 = default 1024)")
		maxEvents = flag.Int("max-events", 0, "per-campaign event log cap before the oldest entries are dropped (0 = default 8192)")
		snapMB    = flag.Int64("snapshot-budget", 0, "in-memory checkpoint-snapshot cache budget in MB, shared across campaigns (<= 0 = default 512)")

		join      = flag.String("join", "", "coordinator base URL: run as a fleet worker that joins it and executes shards, instead of as a coordinator")
		advertise = flag.String("advertise", "", "base URL the coordinator reaches this worker at (worker; default http://127.0.0.1<addr>)")
		workerID  = flag.String("worker-id", "", "worker name in the coordinator's pool (worker; default derived from the advertise URL)")
		registry  = flag.String("registry", "", "durable campaign registry directory: campaigns survive and resume across restarts (coordinator; empty disables)")
		fleetTTL  = flag.Duration("worker-ttl", 0, "heartbeat window before a silent worker is considered dead (coordinator; 0 = default 10s, negative disables the fleet endpoints)")
	)
	flag.Parse()

	snapBudget := *snapMB << 20 // <= 0 stays <= 0: the default budget
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		log.Printf("merlind worker listening on %s, joining %s", *addr, *join)
		err := merlin.ServeWorker(ctx, *addr, merlin.WorkerOptions{
			Coordinator:    *join,
			ID:             *workerID,
			Advertise:      *advertise,
			SnapshotBudget: snapBudget,
			Logf:           log.Printf,
		})
		if err != nil {
			log.Fatalf("merlind: %v", err)
		}
		log.Printf("worker shut down cleanly")
		return
	}

	var artifacts *merlin.Cache
	if *cache != "" {
		c, err := merlin.OpenCache(*cache)
		if err != nil {
			log.Fatalf("merlind: %v", err)
		}
		artifacts = c
		st := c.Stats()
		log.Printf("artifact cache at %s (%d artifacts, %d bytes)", c.Dir(), st.Entries, st.Bytes)
	} else {
		log.Printf("artifact cache disabled; every campaign will repeat its golden run")
	}

	opt := merlin.ServeOptions{
		Cache:                artifacts,
		Concurrency:          *conc,
		QueueDepth:           *queue,
		RetainFinished:       *retain,
		MaxEventsPerCampaign: *maxEvents,
		SnapshotBudget:       snapBudget,
		FleetTTL:             *fleetTTL,
	}
	if *registry != "" {
		reg, err := merlin.OpenRegistry(*registry)
		if err != nil {
			log.Fatalf("merlind: %v", err)
		}
		opt.Registry = reg
		st := reg.Stats()
		log.Printf("campaign registry at %s (%d records, %d bytes): campaigns survive restarts", *registry, st.Records, st.Bytes)
	}

	log.Printf("merlind listening on %s", *addr)
	if err := merlin.Serve(ctx, *addr, opt); err != nil {
		log.Fatalf("merlind: %v", err)
	}
	if opt.Cache != nil {
		st := opt.Cache.Stats()
		log.Printf("shut down cleanly; cache served %d hits / %d misses this run", st.Hits, st.Misses)
	} else {
		log.Printf("shut down cleanly")
	}
}
