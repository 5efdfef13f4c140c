package merlin

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/fleet"
)

// normalizedReport strips the timing and locality counters that
// legitimately differ between a single-node run and a distributed or
// resumed one; everything left — outcomes, distributions, AVF/FIT, group
// accounting — must be bit-identical by determinism.
func normalizedReport(r *Report) Report {
	n := *r
	n.Wall, n.Serial, n.CloneTime = 0, 0, 0
	n.Clones, n.SimCycles = 0, 0
	n.CyclesPerSec = 0
	n.SnapshotHit, n.CacheHit = false, false
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

// fleetWorker serves the real worker pipeline behind an httptest
// listener. dieAfter >= 0 turns it into a crashing worker: every shard
// request streams that many outcomes and then aborts the connection
// without a done marker — exactly what the coordinator sees when a
// worker process is killed mid-shard.
func fleetWorker(t *testing.T, coordURL string, cache *Cache, dieAfter int) *httptest.Server {
	t.Helper()
	run := WorkerShardRun(cache, nil, coordURL, nil)
	if dieAfter >= 0 {
		inner := run
		run = func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) error {
			var n atomic.Int32
			inner(ctx, job, func(o fleet.Outcome) {
				if int(n.Add(1)) <= dieAfter {
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

	// Coordinator plus two workers; w1 streams two outcomes per shard and
	// then drops the connection, every time.
	coord := daemon(t, ServeOptions{Cache: cache})
	w1Cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w2Cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1 := fleetWorker(t, coord.URL, w1Cache, 2)
	w2 := fleetWorker(t, coord.URL, w2Cache, -1)
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

	// The survivor prefetched the golden artifact by content address
	// instead of repeating the golden run.
	if st := w2Cache.Stats(); st.Entries == 0 {
		t.Fatal("surviving worker never received the golden artifact")
	}

	// A list record over the same fleet, the crashing worker rejoined: each
	// structure is sharded in turn (shard jobs name their structure, so the
	// workers derive the list's Preprocess and fetch its artifact), w1's
	// lost reps requeue again, and every per-structure report equals the
	// library batch's.
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
	if st := w2Cache.Stats(); st.Entries < 2 {
		t.Fatalf("surviving worker holds %d artifacts, want the single campaign's and the list's", st.Entries)
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
	for _, frag := range []string{"representative 0", `"Masked"`, `"SDC"`} {
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

// TestPrefetchArtifactDigestMismatch: a worker rejects artifact bytes
// whose sha256 disagrees with the coordinator's advertised digest — the
// in-transit bit flip never enters the cache — while intact bytes under
// the same protocol land normally.
func TestPrefetchArtifactDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the coordinator cache with one real golden artifact.
	ref := daemon(t, ServeOptions{Cache: cache})
	campaignWait(t, ref.URL, postCampaign(t, ref.URL,
		`{"workload":"sha","structure":"RF","faults":300,"seed":9,"strategy":"forked"}`))
	files, err := filepath.Glob(filepath.Join(dir, "*.artifact"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifact landed in the cache: %v (%v)", files, err)
	}
	id := strings.TrimSuffix(filepath.Base(files[0]), ".artifact")
	raw, ok := cache.GetRaw(id)
	if !ok {
		t.Fatalf("artifact %s unreadable", id)
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])

	// A chaos coordinator: advertises the true digest, serves the bytes
	// with one bit flipped when corrupt is set.
	var corrupt atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := raw
		if corrupt.Load() {
			body = append([]byte(nil), raw...)
			body[len(body)/2] ^= 0x40
		}
		w.Header().Set(artifactDigestHeader, digest)
		w.Write(body)
	}))
	defer hs.Close()

	wcache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := fleet.ShardJob{ArtifactID: id, ArtifactURL: "/artifacts/" + id}

	corrupt.Store(true)
	prefetchArtifact(context.Background(), hs.Client(), wcache, hs.URL, job)
	if wcache.HasRaw(id) {
		t.Fatal("corrupted artifact bytes entered the worker cache past the digest check")
	}

	corrupt.Store(false)
	prefetchArtifact(context.Background(), hs.Client(), wcache, hs.URL, job)
	if !wcache.HasRaw(id) {
		t.Fatal("intact artifact bytes rejected despite a matching digest")
	}
}
