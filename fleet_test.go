package merlin

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/fleet"
	"merlin/internal/server"
)

// normalizedReport strips the timing and locality counters that
// legitimately differ between a single-node run and a distributed or
// resumed one; everything left — outcomes, distributions, AVF/FIT, group
// accounting — must be bit-identical by determinism.
func normalizedReport(r *Report) Report {
	n := *r
	n.Wall, n.Work, n.CyclesPerSec, n.CacheHit = 0, Work{}, 0, false
	return n
}

// libraryReports is the differential reference of the daemon and fleet
// tests: the same campaign run through the library API in this process —
// a Session for one structure, a Batch for a list — sharing nothing with
// the daemon under test (no cache, no ledger, no wire).
func libraryReports(t *testing.T, workload string, structures []Structure, opts ...Option) []*Report {
	t.Helper()
	ctx := context.Background()
	if len(structures) == 1 {
		s, err := Start(ctx, workload, append(opts, WithStructure(structures[0]))...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return []*Report{rep}
	}
	b, err := StartBatch(ctx, workload, append(opts, WithStructures(structures...))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Reports
}

// sameReports fails the test unless got and want agree report by report
// on everything normalizedReport keeps.
func sameReports(t *testing.T, what string, got, want []*Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := normalizedReport(got[i]), normalizedReport(want[i]); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %v report diverged from the library reference:\n got %+v\nwant %+v",
				what, want[i].Structure, g, w)
		}
	}
}

// campaignEvents drains a finished campaign's NDJSON event stream.
func campaignEvents(t *testing.T, base, id string) []CampaignEvent {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []CampaignEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var ev CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func countEvents(evs []CampaignEvent, typ string) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// joinFleet registers a worker with a coordinator, as the agent's join
// call would.
func joinFleet(t *testing.T, coordURL, id, addr string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"addr":%q}`, id, addr)
	resp, err := http.Post(coordURL+"/fleet/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join %s: status %d", id, resp.StatusCode)
	}
}

// fleetWorker serves the real shard executor behind an httptest listener;
// it holds nothing but the jobs it is sent — no cache directory, no
// coordinator URL. dieAfter >= 0 turns it into a crashing worker: every
// shard request streams the outcomes of the job's first dieAfter reps and
// then aborts the connection without a done marker — exactly what the
// coordinator sees when a worker process is killed mid-shard. Which reps
// it streams does not depend on the order its campaign finishes them in,
// so a retried shard loses the same reps again.
func fleetWorker(t *testing.T, dieAfter int) *httptest.Server {
	t.Helper()
	run := WorkerShardRun(nil)
	if dieAfter >= 0 {
		inner := run
		run = func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) (json.RawMessage, error) {
			first := job.Reps[:min(dieAfter, len(job.Reps))]
			inner(ctx, job, func(o fleet.Outcome) {
				if slices.Contains(first, o.Rep) {
					emit(o)
				}
			})
			panic(http.ErrAbortHandler) // abort the response stream: no done marker
		}
	}
	agent := &fleet.Agent{ID: "test-worker", Run: run}
	hs := httptest.NewServer(agent.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestFleetWorkerLossRequeue is the distributed acceptance test: a
// campaign sharded over two workers, one of which dies mid-shard, still
// completes — the lost reps requeue onto the survivor — and the merged
// report matches a library run of the same campaign bit-identically
// (timing counters aside). A list record through the same fleet is
// sharded structure by structure under the same contract.
func TestFleetWorkerLossRequeue(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"workload":"sha","structure":"RF","faults":300,"seed":9,"strategy":"forked"}`
	refOpts := []Option{WithFaults(300), WithSeed(9), WithStrategy(StrategyForked)}
	want := libraryReports(t, "sha", []Structure{RF}, refOpts...)[0]

	// Coordinator plus two workers; w1 streams the outcomes of each
	// shard's first two reps and then drops the connection, every time.
	coord := daemon(t, ServeOptions{Cache: cache})
	w1 := fleetWorker(t, 2)
	w2 := fleetWorker(t, -1)
	joinFleet(t, coord.URL, "w1", w1.URL)
	joinFleet(t, coord.URL, "w2", w2.URL)

	id := postCampaign(t, coord.URL, body)
	_, got := campaignWait(t, coord.URL, id)
	sameReports(t, "distributed campaign", []*Report{got}, []*Report{want})

	evs := campaignEvents(t, coord.URL, id)
	if countEvents(evs, "requeue") == 0 {
		t.Fatal("no requeue event despite the worker dying mid-shard")
	}
	if n := countEvents(evs, "fault"); n != want.Injected {
		t.Fatalf("fault events = %d, want exactly %d (one per representative, duplicates merged)",
			n, want.Injected)
	}

	// The dead worker was dropped from the pool; the survivor remains.
	resp, err := http.Get(coord.URL + "/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Workers []fleet.WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || list.Workers[0].ID != "w2" {
		t.Fatalf("pool after worker loss = %+v, want only w2", list.Workers)
	}

	// A list record over the same fleet, the crashing worker rejoined: each
	// structure is sharded in turn, w1's lost reps requeue again, and every
	// per-structure report equals the library batch's.
	joinFleet(t, coord.URL, "w1", w1.URL)
	wantList := libraryReports(t, "sha", []Structure{RF, SQ}, refOpts...)
	bid := postCampaign(t, coord.URL,
		`{"workload":"sha","structures":["RF","SQ"],"faults":300,"seed":9,"strategy":"forked"}`)
	_, gotList := batchWait(t, coord.URL, bid)
	sameReports(t, "distributed list record", gotList.Reports, wantList)

	evs = campaignEvents(t, coord.URL, bid)
	if countEvents(evs, "requeue") == 0 {
		t.Fatal("list record: no requeue event despite the worker dying mid-shard")
	}
	faults, remote := map[string]int{}, map[string]int{}
	for _, ev := range evs {
		switch {
		case ev.Type == "fault":
			faults[ev.Structure]++
		case ev.Type == "shard" && strings.Contains(ev.Msg, "-> worker"):
			remote[ev.Structure]++
		}
	}
	for _, w := range wantList {
		name := w.Structure.String()
		if faults[name] != w.Injected {
			t.Fatalf("list record: %d %s fault events, want exactly %d", faults[name], name, w.Injected)
		}
		if remote[name] == 0 {
			t.Fatalf("list record: no %s shard went to a worker: %v", name, remote)
		}
	}
}

// TestFleetCoordinatorRestartResume is the durability acceptance test: a
// coordinator killed mid-campaign leaves a resumable record in the
// registry; its successor re-enqueues the record, re-injects only the
// unclassified remainder, and the final report matches an uninterrupted
// library run bit-identically — for a single-structure record and for a
// list record (whose checkpoint is one flat map, each structure's
// representatives offset by the ones before it).
func TestFleetCoordinatorRestartResume(t *testing.T) {
	// replay over qsort is the slowest per-representative pipeline in the
	// suite (~7ms each over ~24 reps), which gives the poll below a wide,
	// deterministic window to kill the coordinator mid-injection.
	refOpts := []Option{WithFaults(800), WithSeed(5), WithStrategy(StrategyReplay), WithWorkers(1)}
	for _, tc := range []struct {
		name       string
		body       string
		structures []Structure
	}{
		{"single", `{"workload":"qsort","structure":"RF","faults":800,"seed":5,"strategy":"replay","workers":1}`, []Structure{RF}},
		// SQ (~9 reps) before RF (~24): the kill below lands inside the
		// second structure, so the resume has to apply the checkpoint offset.
		{"list", `{"workload":"qsort","structures":["SQ","RF"],"faults":800,"seed":5,"strategy":"replay","workers":1}`, []Structure{SQ, RF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := libraryReports(t, "qsort", tc.structures, refOpts...)
			injected := 0
			for _, w := range want {
				injected += w.Injected
			}
			// Kill once the last structure has checkpointed a few outcomes.
			killAt := injected - want[len(want)-1].Injected + 3
			// reports decodes a finished record of either shape.
			reports := func(base, id string) []*Report {
				t.Helper()
				if len(tc.structures) > 1 {
					_, rep := batchWait(t, base, id)
					return rep.Reports
				}
				_, rep := campaignWait(t, base, id)
				return []*Report{rep}
			}

			cache, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			reg, err := OpenRegistry(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv1, err := NewServer(ServeOptions{Cache: cache, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			hs1 := httptest.NewServer(srv1.Handler())
			id := postCampaign(t, hs1.URL, tc.body)

			// Wait for killAt checkpointed outcomes, then kill the coordinator
			// mid-injection.
			type liveStatus struct {
				Status       string `json:"status"`
				Checkpointed int    `json:"checkpointed"`
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				resp, err := http.Get(hs1.URL + "/campaigns/" + id)
				if err != nil {
					t.Fatal(err)
				}
				var st liveStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if st.Status == "running" && st.Checkpointed >= killAt {
					break
				}
				if st.Status == "done" || st.Status == "failed" {
					t.Fatalf("campaign reached %q before the coordinator could be killed; raise the fault count", st.Status)
				}
				if time.Now().After(deadline) {
					t.Fatalf("campaign never checkpointed (status %q, %d outcomes)", st.Status, st.Checkpointed)
				}
				time.Sleep(time.Millisecond)
			}
			srv1.Close() // the "crash": in-flight campaign interrupted, record stays resumable
			hs1.Close()

			// Registry holds a running record with its checkpoint.
			rec, ok := reg.Get(id)
			if !ok {
				t.Fatal("interrupted record missing from registry")
			}
			if rec.Status != "running" || len(rec.Outcomes) < killAt {
				t.Fatalf("interrupted record = status %q with %d outcomes, want a resumable running record",
					rec.Status, len(rec.Outcomes))
			}
			checkpointed := len(rec.Outcomes)

			// Successor coordinator over the same registry: the campaign resumes
			// and completes.
			srv2, err := NewServer(ServeOptions{Cache: cache, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			hs2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(func() { hs2.Close(); srv2.Close() })
			sameReports(t, "resumed record", reports(hs2.URL, id), want)

			// The second incarnation resumed rather than restarted: its log opens
			// with the resume marker and re-injects only the remainder.
			evs := campaignEvents(t, hs2.URL, id)
			if len(evs) == 0 || evs[0].Type != "resumed" {
				t.Fatalf("restored log does not open with a resumed event: %+v", evs[:min(len(evs), 3)])
			}
			if n := countEvents(evs, "fault"); n > injected-checkpointed {
				t.Fatalf("resumed incarnation injected %d faults, want <= %d (%d were checkpointed)",
					n, injected-checkpointed, checkpointed)
			}

			// The finished record is durable too: it survives into a third
			// incarnation as a queryable report without re-running anything.
			srv3, err := NewServer(ServeOptions{Cache: cache, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			hs3 := httptest.NewServer(srv3.Handler())
			t.Cleanup(func() { hs3.Close(); srv3.Close() })
			sameReports(t, "restored record", reports(hs3.URL, id), want)
		})
	}
}

// TestLedgerMismatchedDuplicate: the merge point tolerates verbatim
// duplicates but turns a contradicting one into ErrDeterminismViolation —
// recorded once, surfaced as an error event, never merged.
func TestLedgerMismatchedDuplicate(t *testing.T) {
	var evs []CampaignEvent
	fresh := 0
	led := newOutcomeLedger(4, "RF",
		func(ev CampaignEvent) { evs = append(evs, ev) },
		func(int, campaign.Outcome) { fresh++ })

	led.record(0, campaign.Masked)
	led.record(0, campaign.Masked) // verbatim duplicate: benign
	if _, err := led.result(); err != nil {
		t.Fatalf("verbatim duplicate tripped the violation: %v", err)
	}

	led.record(0, campaign.SDC) // contradiction
	_, err := led.result()
	if !errors.Is(err, ErrDeterminismViolation) {
		t.Fatalf("err = %v, want ErrDeterminismViolation", err)
	}
	for _, frag := range []string{"fault 0", `"Masked"`, `"SDC"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("violation diagnostic %q lacks %q", err, frag)
		}
	}
	if led.outcomes[0] != campaign.Masked {
		t.Fatalf("contradiction overwrote the merged outcome: %v", led.outcomes[0])
	}

	led.record(0, campaign.Crash) // repeat offender: no event spam
	nerr := 0
	for _, ev := range evs {
		if ev.Type == "error" {
			nerr++
		}
	}
	if nerr != 1 {
		t.Fatalf("%d error events for one violation, want exactly 1", nerr)
	}
	if fresh != 1 {
		t.Fatalf("%d fresh outcomes forwarded, want exactly 1 (duplicates never reach the progress stream or the checkpoint)", fresh)
	}
}

// TestDaemonFleetDisabled: a negative FleetTTL keeps the fleet endpoints
// unmounted — nobody can join — while campaigns still run in-process; the
// default TTL mounts them.
func TestDaemonFleetDisabled(t *testing.T) {
	const join = `{"id":"w1","addr":"http://127.0.0.1:1"}`
	closed := daemon(t, ServeOptions{FleetTTL: -1})
	resp, err := http.Post(closed.URL+"/fleet/join", "application/json", strings.NewReader(join))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("join with the fleet disabled: status %d, want 404", resp.StatusCode)
	}
	id := postCampaign(t, closed.URL, `{"workload":"sha","structure":"RF","faults":100}`)
	campaignWait(t, closed.URL, id) // fails the test unless the record ends done

	open := daemon(t, ServeOptions{FleetTTL: 0})
	joinFleet(t, open.URL, "w1", "http://127.0.0.1:1")
}

// TestPendingShards: the ledger deals list indices, not groups — round-robin,
// which on a fresh list is what the reduction's whole-group sharding gave at
// one representative per group — and on a resumed list only what is pending;
// degenerate shard counts collapse to one shard or drop the empty ones.
func TestPendingShards(t *testing.T) {
	led := newOutcomeLedger(10, "RF", func(CampaignEvent) {}, func(int, campaign.Outcome) {})
	if got, want := led.pendingShards(4), [][]int{{0, 4, 8}, {1, 5, 9}, {2, 6}, {3, 7}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh list at n=4: %v, want %v", got, want)
	}
	// Keys are offset by the preceding structures' lists: 5 and 110 belong
	// to other structures and apply to nothing here.
	if n := led.resume(map[int]string{100: "Masked", 103: "SDC", 104: "Masked", 109: "Crash", 5: "Masked", 110: "SDC"}, 100); n != 4 {
		t.Fatalf("resume applied %d outcomes, want 4", n)
	}
	for n, want := range map[int][][]int{
		4:  {{1, 7}, {2, 8}, {5}, {6}},
		0:  {{1, 2, 5, 6, 7, 8}},
		20: {{1}, {2}, {5}, {6}, {7}, {8}},
	} {
		if got := led.pendingShards(n); !reflect.DeepEqual(got, want) {
			t.Errorf("resumed list at n=%d: %v, want %v", n, got, want)
		}
	}
	for _, i := range []int{1, 2, 5, 6, 7, 8} {
		led.record(i, campaign.Masked)
	}
	if got := led.pendingShards(4); len(got) != 0 {
		t.Errorf("fully classified list still shards: %v", got)
	}
}

// TestBaselineThroughLedger: the ledger needs no group boundaries, so the
// comprehensive list runs through it like any other — over an empty pool
// (every shard in-process) Session.Baseline under the daemon's executor
// equals the library's outcome for outcome, every outcome was checkpointed
// under its list index offset by the lists before it (no reduction exists
// to size the offset by), and a second incarnation resumed from that
// checkpoint injects nothing.
func TestBaselineThroughLedger(t *testing.T) {
	ctx := context.Background()
	opts := []Option{WithFaults(300), WithSeed(9)}
	for _, structures := range [][]Structure{{RF}, {RF, SQ}} {
		t.Run(fmt.Sprint(structures), func(t *testing.T) {
			var want []*BaselineReport
			for _, s := range structures {
				r, err := startSession(t, "sha", append(opts, WithStructure(s))...).Baseline(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
			// baselines runs every structure's comprehensive list through
			// one ledger-backed batch and returns what it checkpointed.
			baselines := func(resume map[int]string) ([]*BaselineReport, map[int]string) {
				b, err := StartBatch(ctx, "sha", append(opts, WithStructures(structures...))...)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				checkpointed := map[int]string{}
				job := server.Job{ID: "c000001", Resume: resume, Checkpoint: func(k int, v string) {
					mu.Lock()
					defer mu.Unlock()
					checkpointed[k] = v
				}}
				b.inject = ledgerInjector(job, func(CampaignEvent) {}, fleet.NewPool(0), nil, 0)
				if err := b.Preprocess(ctx); err != nil {
					t.Fatal(err)
				}
				var got []*BaselineReport
				for _, s := range b.sessions {
					r, err := s.Baseline(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
				}
				return got, checkpointed
			}
			same := func(got []*BaselineReport) {
				t.Helper()
				for i, g := range got {
					w := want[i]
					if !reflect.DeepEqual(g.Outcomes, w.Outcomes) || g.Dist != w.Dist || g.AVF != w.AVF || g.FIT != w.FIT {
						t.Fatalf("%v baseline through the ledger diverged from the library's:\nledger  %v\nlibrary %v", structures[i], g.Dist, w.Dist)
					}
				}
			}

			got, checkpointed := baselines(nil)
			same(got)
			offset := 0
			for i, w := range want {
				if got[i].SimCycles == 0 || got[i].Clones == 0 {
					t.Errorf("%v ledger baseline reports no work: %+v", structures[i], got[i].Work)
				}
				if got[i].DeadAtFlip != w.DeadAtFlip || w.DeadAtFlip == 0 {
					t.Errorf("%v: %d faults dead at the flip through the ledger, %d in the library", structures[i], got[i].DeadAtFlip, w.DeadAtFlip)
				}
				if got[i].Overwritten != w.Overwritten || w.Overwritten == 0 {
					t.Errorf("%v: %d faults overwritten before a read through the ledger, %d in the library", structures[i], got[i].Overwritten, w.Overwritten)
				}
				for j, o := range w.Outcomes {
					if checkpointed[offset+j] != o.String() {
						t.Fatalf("%v fault %d checkpointed under key %d as %q, classified %v", structures[i], j, offset+j, checkpointed[offset+j], o)
					}
				}
				offset += len(w.Outcomes)
			}
			if len(checkpointed) != offset {
				t.Fatalf("%d checkpoint keys for %d faults: the structures' key ranges overlap", len(checkpointed), offset)
			}

			resumed, again := baselines(checkpointed)
			same(resumed)
			if len(again) != 0 {
				t.Errorf("resumed from a complete checkpoint, yet %d faults were injected again", len(again))
			}
			for i, r := range resumed {
				if r.SimCycles != 0 || r.Clones != 0 || r.DeadAtFlip != 0 || r.Overwritten != 0 {
					t.Errorf("%v resumed baseline spent work: %+v", structures[i], r.Work)
				}
			}
		})
	}
}

// TestFleetShipsFaultsNotRecipe: a worker executes a shard holding only the
// job. Campaigns over a two-worker fleet — one structure, a list, and
// non-default grouping and core knobs the workers must not need to re-apply
// (that request names no strategy: both sides resolve the default) — equal
// the library reference while the coordinator serves no artifact
// (the route is gone), the workers ask it for nothing at all, and the
// fully remote campaigns still report the work they cost.
func TestFleetShipsFaultsNotRecipe(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServeOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	served := map[string]int{} // first path segment -> requests
	handler := srv.Handler()
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served[strings.SplitN(r.URL.Path, "/", 3)[1]]++
		mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { coord.Close(); srv.Close() })
	joinFleet(t, coord.URL, "w1", fleetWorker(t, -1).URL)
	joinFleet(t, coord.URL, "w2", fleetWorker(t, -1).URL)

	base := []Option{WithFaults(300), WithSeed(9)}
	for _, tc := range []struct {
		name       string
		body       string
		structures []Structure
		opts       []Option
	}{
		{"single", `{"workload":"sha","structure":"RF","faults":300,"seed":9,"strategy":"forked"}`,
			[]Structure{RF}, []Option{WithStrategy(StrategyForked)}},
		{"list", `{"workload":"sha","structures":["RF","SQ"],"faults":300,"seed":9,"strategy":"forked"}`,
			[]Structure{RF, SQ}, []Option{WithStrategy(StrategyForked)}},
		{"knobs", `{"workload":"sha","structure":"RF","faults":300,"seed":9,"phys_regs":128}`,
			[]Structure{RF}, []Option{WithCPU(cpu.DefaultConfig().WithRF(128))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := libraryReports(t, "sha", tc.structures, append(tc.opts, base...)...)
			id := postCampaign(t, coord.URL, tc.body)
			var got []*Report
			if len(tc.structures) > 1 {
				_, rep := batchWait(t, coord.URL, id)
				got = rep.Reports
			} else {
				_, rep := campaignWait(t, coord.URL, id)
				got = []*Report{rep}
			}
			sameReports(t, "fleet campaign", got, want)

			remote := 0
			for _, ev := range campaignEvents(t, coord.URL, id) {
				switch {
				case ev.Type == "requeue", ev.Type == "shard" && strings.Contains(ev.Msg, "locally"):
					t.Fatalf("a shard did not run remotely: %s: %s", ev.Type, ev.Msg)
				case ev.Type == "shard" && strings.Contains(ev.Msg, "-> worker"):
					remote++
				}
			}
			if remote < len(tc.structures) {
				t.Fatalf("%d remote shard assignments for %d structures", remote, len(tc.structures))
			}
			for i, r := range got {
				if r.SimCycles == 0 || r.Clones == 0 || r.Serial == 0 || r.CyclesPerSec == 0 {
					t.Fatalf("%v ran on workers only and reports no work: SimCycles %d, Clones %d, Serial %v, CyclesPerSec %v",
						r.Structure, r.SimCycles, r.Clones, r.Serial, r.CyclesPerSec)
				}
				// A worker hands off exactly where the library run does: the
				// acceptance rule reads the golden instruction count, which
				// the spec must carry (without it every attempt falls back).
				w := want[i]
				if r.HandOffs == 0 || r.HandOffs != w.HandOffs || r.FellBack != w.FellBack || r.InterpInsts != w.InterpInsts {
					t.Fatalf("%v on workers: %d hand-offs, %d fall-backs, %d interpreted instructions; in-process %d, %d, %d",
						r.Structure, r.HandOffs, r.FellBack, r.InterpInsts, w.HandOffs, w.FellBack, w.InterpInsts)
				}
			}
		})
	}

	// The test is the coordinator's only client besides the two joins it
	// posted itself: nothing but record traffic and those joins arrived, so
	// the workers fetched nothing. And there is nothing to fetch.
	mu.Lock()
	for tree, n := range served {
		if tree != "campaigns" && tree != "fleet" {
			t.Errorf("coordinator served %d requests under /%s", n, tree)
		}
	}
	if served["fleet"] != 2 {
		t.Errorf("coordinator served %d /fleet/ requests, want only the two joins", served["fleet"])
	}
	mu.Unlock()
	resp, err := http.Get(coord.URL + "/artifacts/" + strings.Repeat("a", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /artifacts/<id> = %d, want 404: the route is gone", resp.StatusCode)
	}
}

// TestWorkerRejectsBadShardSpec: a shard spec is input from outside the
// process. A corrupted or malformed one ends the stream with a named error
// on the done marker and not one outcome line — nothing is simulated, so
// nothing can be misclassified — while the intact job classifies every
// fault and reports its work.
func TestWorkerRejectsBadShardSpec(t *testing.T) {
	ctx := context.Background()
	s, err := Start(ctx, "sha", WithFaults(300), WithSeed(9), WithStrategy(StrategyForked))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Preprocess(ctx); err != nil {
		t.Fatal(err)
	}
	red, err := s.Reduce()
	if err != nil {
		t.Fatal(err)
	}
	golden := s.art.Golden.Result
	good := shardSpec{
		Request: CampaignRequest{Workload: "sha", Structure: "RF", Strategy: "forked"},
		Cycles:  golden.Cycles, Insts: golden.Stats.CommittedInsts, Output: golden.Output, ExcLog: golden.ExcLog,
		Faults: red.Reduced()[:4],
	}
	reps := []int{0, 1, 2, 3}

	hs := httptest.NewServer((&fleet.Agent{ID: "w", Run: WorkerShardRun(nil)}).Handler())
	defer hs.Close()
	type line struct {
		Outcome string          `json:"outcome"`
		Done    bool            `json:"done"`
		Err     string          `json:"error"`
		Work    json.RawMessage `json:"work"`
	}
	// run posts spec as the coordinator would stamp it, after tamper (nil
	// for none) had its way with the job, and returns the stream's outcome
	// line count and its done marker.
	run := func(spec shardSpec, tamper func(*fleet.ShardJob)) (outcomes int, done line) {
		t.Helper()
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		job := fleet.ShardJob{Campaign: "c000001", Spec: raw, Digest: specDigest(raw), Reps: reps}
		if tamper != nil {
			tamper(&job)
		}
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/fleet/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var l line
			if err := dec.Decode(&l); err != nil {
				t.Fatal(err)
			}
			if l.Done {
				return outcomes, l
			}
			outcomes++
		}
		t.Fatal("stream ended without a done marker")
		return
	}

	n, done := run(good, nil)
	var work Work
	if n != len(reps) || done.Err != "" || json.Unmarshal(done.Work, &work) != nil || work.SimCycles == 0 {
		t.Fatalf("intact job: %d outcome lines, done marker %+v (work %+v)", n, done, work)
	}

	with := func(mut func(*shardSpec)) shardSpec {
		sp := good
		sp.Faults = append([]Fault(nil), good.Faults...)
		mut(&sp)
		return sp
	}
	for _, tc := range []struct {
		name   string
		spec   shardSpec
		tamper func(*fleet.ShardJob)
		want   string
	}{
		{name: "flipped spec byte", spec: good, want: "digest mismatch",
			tamper: func(j *fleet.ShardJob) {
				// A digit of the golden cycle count: still valid JSON, a
				// different reference — only the digest can tell.
				i := bytes.Index(j.Spec, []byte(`"cycles":`)) + len(`"cycles":`)
				j.Spec = append([]byte(nil), j.Spec...)
				j.Spec[i] ^= 1
			}},
		{name: "fewer faults than reps", spec: with(func(sp *shardSpec) { sp.Faults = sp.Faults[:3] }), want: "3 faults for 4 representatives"},
		{name: "entry out of range", spec: with(func(sp *shardSpec) { sp.Faults[1].Entry = 256 }), want: "outside the configured geometry"},
		{name: "negative entry", spec: with(func(sp *shardSpec) { sp.Faults[1].Entry = -1 }), want: "outside the configured geometry"},
		{name: "bit out of range", spec: with(func(sp *shardSpec) { sp.Faults[2].Bit = 64 }), want: "outside the configured geometry"},
		{name: "cycle past the golden run", spec: with(func(sp *shardSpec) { sp.Faults[3].Cycle = golden.Cycles + 1 }), want: "outside the golden run"},
		{name: "no golden instruction count", spec: with(func(sp *shardSpec) { sp.Insts = 0 }), want: "no golden instruction count"},
		{name: "cycle zero", spec: with(func(sp *shardSpec) { sp.Faults[0].Cycle = 0 }), want: "outside the golden run"},
		{name: "unknown structure", spec: good, want: "unknown structure",
			tamper: func(j *fleet.ShardJob) { // no Fault value marshals to this; re-stamped, so only decoding objects
				j.Spec = bytes.Replace(j.Spec, []byte(`"Structure":"RF"`), []byte(`"Structure":"XQ"`), 1)
				j.Digest = specDigest(j.Spec)
			}},
		{name: "unknown workload", spec: with(func(sp *shardSpec) { sp.Request.Workload = "nope" }), want: "unknown workload"},
		{name: "geometry follows the core knobs", spec: with(func(sp *shardSpec) {
			sp.Request.PhysRegs = 128
			sp.Faults[0].Entry = 200 // inside the default 256-entry RF, outside this one
		}), want: "outside the configured geometry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, done := run(tc.spec, tc.tamper)
			if n != 0 {
				t.Fatalf("%d outcome lines streamed from a rejected spec", n)
			}
			if !strings.Contains(done.Err, tc.want) || done.Work != nil {
				t.Fatalf("done marker = %+v, want an error naming %q and no work", done, tc.want)
			}
		})
	}
}
