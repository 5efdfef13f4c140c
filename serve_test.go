package merlin

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"merlin/internal/store"
)

// daemon spins up the real campaign service (real pipeline, real cache)
// behind an httptest listener.
func daemon(t *testing.T, opt ServeOptions) *httptest.Server {
	t.Helper()
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs
}

func postCampaign(t *testing.T, base string, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, out.Error)
	}
	return out.ID
}

// campaignStatus mirrors the service's status JSON with the report decoded
// into the real Report type.
type campaignStatus struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Report   json.RawMessage `json:"report"`
}

// recordWait polls a record until it is done and decodes its report into
// rep (a *Report for a single-structure record, a *BatchReport for a list
// one). It polls under /campaigns whatever the id's prefix: the trees are
// aliases.
func recordWait(t *testing.T, base, id string, rep any) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st campaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case "failed":
			t.Fatalf("campaign %s failed: %s", id, st.Error)
		case "done":
			if err := json.Unmarshal(st.Report, rep); err != nil {
				t.Fatalf("decoding report: %v", err)
			}
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return campaignStatus{}
}

func campaignWait(t *testing.T, base, id string) (campaignStatus, *Report) {
	t.Helper()
	rep := new(Report)
	return recordWait(t, base, id, rep), rep
}

func batchWait(t *testing.T, base, id string) (campaignStatus, *BatchReport) {
	t.Helper()
	rep := new(BatchReport)
	return recordWait(t, base, id, rep), rep
}

// TestDaemonCacheHitOnResubmit is the acceptance-criteria test: the same
// campaign submitted twice hits the artifact cache on the second run,
// produces a bit-identical Dist, and skips the golden run.
func TestDaemonCacheHitOnResubmit(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := daemon(t, ServeOptions{Cache: cache})

	const body = `{"workload":"sha","structure":"RF","faults":300,"seed":9,"strategy":"forked"}`
	_, first := campaignWait(t, hs.URL, postCampaign(t, hs.URL, body))
	if first.CacheHit {
		t.Fatal("first campaign reported a cache hit on an empty cache")
	}

	_, second := campaignWait(t, hs.URL, postCampaign(t, hs.URL, body))
	if !second.CacheHit {
		t.Fatal("second identical campaign missed the artifact cache: golden run was repeated")
	}
	if second.Dist != first.Dist {
		t.Fatalf("Dist not bit-identical across cache hit:\nfirst  %v\nsecond %v", first.Dist, second.Dist)
	}
	if second.GoldenCycles != first.GoldenCycles || second.AVF != first.AVF ||
		second.Injected != first.Injected || second.FIT != first.FIT {
		t.Fatalf("cached campaign diverged:\nfirst  %+v\nsecond %+v", first, second)
	}

	// The golden-run skip is visible on /statsz too.
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.Cache.Puts != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / 1 put", stats.Cache)
	}

	// A different fault budget over the same artifact also hits.
	_, third := campaignWait(t, hs.URL, postCampaign(t, hs.URL,
		`{"workload":"sha","structure":"RF","faults":120,"seed":4,"strategy":"replay"}`))
	if !third.CacheHit {
		t.Fatal("campaign with a different fault budget missed the shared artifact")
	}
	if third.InitialFaults != 120 {
		t.Fatalf("third campaign sampled %d faults, want its own 120", third.InitialFaults)
	}
}

// TestDaemonSnapshotHitOnResubmit is the snapshot-cache acceptance test:
// the first campaign misses the daemon's snapshot cache and its walkers
// freeze the checkpoint ladder into it, and a repeat campaign, served by
// the golden-artifact cache, walks from that ladder's rungs — visible as the
// report's SnapshotHit, the inject event's snapshot_hit field, and the
// /statsz counters (one miss, one hit, one ladder) — while producing a
// bit-identical Dist. It runs on
// a plain daemon and on one with a durable registry: every deployment
// runs the one ledger path, so both report the work counters and the two
// repeat reports are equal in everything but wall-clock.
func TestDaemonSnapshotHitOnResubmit(t *testing.T) {
	repeats := map[string]Report{}
	for _, name := range []string{"plain", "registry"} {
		t.Run(name, func(t *testing.T) {
			cache, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opt := ServeOptions{Cache: cache}
			if name == "registry" {
				if opt.Registry, err = OpenRegistry(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			hs := daemon(t, opt)

			const body = `{"workload":"sha","structure":"RF","faults":300,"seed":9,"strategy":"forked"}`
			firstID := postCampaign(t, hs.URL, body)
			_, first := campaignWait(t, hs.URL, firstID)
			if first.SnapshotHit {
				t.Fatal("first campaign was served a ladder by an empty snapshot cache")
			}

			secondID := postCampaign(t, hs.URL, body)
			_, second := campaignWait(t, hs.URL, secondID)
			if !second.CacheHit {
				t.Fatal("second campaign missed the artifact cache")
			}
			if !second.SnapshotHit {
				t.Fatal("second identical campaign was not served the ladder the first one froze")
			}
			if second.Dist != first.Dist {
				t.Fatalf("Dist not bit-identical across snapshot hit:\nfirst  %v\nsecond %v", first.Dist, second.Dist)
			}
			for i, r := range []*Report{first, second} {
				if r.SimCycles == 0 || r.Clones == 0 || r.CyclesPerSec <= 0 {
					t.Errorf("campaign %d reports no work: SimCycles %d, Clones %d, CyclesPerSec %v",
						i+1, r.SimCycles, r.Clones, r.CyclesPerSec)
				}
			}
			norm := *second
			norm.Wall, norm.Serial, norm.CloneTime, norm.CyclesPerSec = 0, 0, 0, 0
			repeats[name] = norm

			// The inject event of the second campaign carries the hit.
			resp, err := http.Get(hs.URL + "/campaigns/" + secondID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var injectSeen, injectHit bool
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev CampaignEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("bad event line %q: %v", sc.Text(), err)
				}
				if ev.Type == "inject" {
					injectSeen = true
					if ev.SnapshotHit != nil && *ev.SnapshotHit {
						injectHit = true
					}
					if ev.CyclesPerSec <= 0 {
						t.Errorf("inject event missing cycles_per_sec: %+v", ev)
					}
				}
			}
			if !injectSeen {
				t.Fatal("no inject event in the second campaign's stream")
			}
			if !injectHit {
				t.Fatal("second campaign's inject event does not carry snapshot_hit=true")
			}

			// /statsz exports the snapshot cache counters.
			sresp, err := http.Get(hs.URL + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			defer sresp.Body.Close()
			var stats struct {
				Snapshots SnapshotCacheStats `json:"snapshots"`
			}
			if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
				t.Fatal(err)
			}
			if stats.Snapshots.Hits != 1 || stats.Snapshots.Misses != 1 || stats.Snapshots.Entries != 1 {
				t.Fatalf("snapshot stats = %+v, want 1 miss freezing the 1 entry, served to 1 campaign", stats.Snapshots)
			}
			if stats.Snapshots.Bytes <= 0 || stats.Snapshots.Budget <= 0 {
				t.Fatalf("snapshot stats missing byte accounting: %+v", stats.Snapshots)
			}
		})
	}
	if !reflect.DeepEqual(repeats["plain"], repeats["registry"]) {
		t.Fatalf("same request, different report by deployment:\nplain    %+v\nregistry %+v",
			repeats["plain"], repeats["registry"])
	}
}

// TestDaemonConcurrentEventStreams runs two campaigns concurrently and
// asserts both event streams carry per-fault outcomes while the campaigns
// overlap in time.
func TestDaemonConcurrentEventStreams(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := daemon(t, ServeOptions{Cache: cache, Concurrency: 2})

	// Bounded per-campaign workers: a campaign defaulting to all host
	// cores can starve the test harness (and the second submission) long
	// enough for the first campaign to finish before the second starts.
	idA := postCampaign(t, hs.URL, `{"workload":"sha","structure":"RF","faults":400,"seed":2,"workers":2,"strategy":"replay"}`)
	idB := postCampaign(t, hs.URL, `{"workload":"qsort","structure":"RF","faults":400,"seed":2,"workers":2,"strategy":"replay"}`)

	type stream struct {
		id     string
		faults int
		last   string
		ok     bool
	}
	results := make(chan stream, 2)
	for _, id := range []string{idA, idB} {
		go func(id string) {
			out := stream{id: id}
			resp, err := http.Get(hs.URL + "/campaigns/" + id + "/events")
			if err != nil {
				results <- out
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var ev CampaignEvent
				if json.Unmarshal(sc.Bytes(), &ev) != nil {
					results <- out
					return
				}
				if ev.Type == "fault" {
					out.faults++
					if ev.Outcome == "" || ev.Fault == "" {
						results <- out
						return
					}
				}
				out.last = ev.Type
			}
			out.ok = sc.Err() == nil
			results <- out
		}(id)
	}

	for i := 0; i < 2; i++ {
		r := <-results
		if !r.ok {
			t.Fatalf("stream %s broke (last=%q)", r.id, r.last)
		}
		if r.faults == 0 {
			t.Fatalf("stream %s carried no per-fault outcomes", r.id)
		}
		if r.last != "done" {
			t.Fatalf("stream %s ended on %q, want done", r.id, r.last)
		}
	}

	// Both campaigns genuinely overlapped: each started before the other
	// finished.
	stA, _ := campaignWait(t, hs.URL, idA)
	stB, _ := campaignWait(t, hs.URL, idB)
	if !stA.Started.Before(stB.Finished) || !stB.Started.Before(stA.Finished) {
		t.Fatalf("campaigns did not overlap: A %v..%v, B %v..%v",
			stA.Started, stA.Finished, stB.Started, stB.Finished)
	}
}

// TestDaemonRejectsBadRequests: submission-time validation speaks 400.
func TestDaemonRejectsBadRequests(t *testing.T) {
	hs := daemon(t, ServeOptions{})
	for name, body := range map[string]string{
		"unknown workload":  `{"workload":"nope","structure":"RF"}`,
		"unknown structure": `{"workload":"sha","structure":"ROB"}`,
		"unknown strategy":  `{"workload":"sha","structure":"RF","strategy":"warp"}`,
		"negative faults":   `{"workload":"sha","structure":"RF","faults":-5}`,
		"negative workers":  `{"workload":"sha","structure":"RF","workers":-1}`,
		"negative regs":     `{"workload":"sha","structure":"RF","phys_regs":-64}`,
	} {
		resp, err := http.Post(hs.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestDaemonCancelMidInjection is the cancellation acceptance test
// against the real pipeline: DELETE on a mid-injection campaign turns it
// "cancelled", delivers the terminal NDJSON event to an attached
// streamer, and frees the runner (observable via /statsz counts as
// the next campaign runs).
func TestDaemonCancelMidInjection(t *testing.T) {
	hs := daemon(t, ServeOptions{Concurrency: 1})

	// A large replay campaign on one worker: slow enough to catch
	// mid-injection, instantly abandoned once cancelled.
	id := postCampaign(t, hs.URL,
		`{"workload":"sha","structure":"RF","faults":60000,"seed":1,"workers":1,"strategy":"replay"}`)

	// Stream events until the first per-fault outcome proves the campaign
	// is mid-injection, then DELETE it; keep draining to catch the
	// terminal event.
	resp, err := http.Get(hs.URL + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	deleted := false
	last := ""
	for sc.Scan() {
		var ev CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		last = ev.Type
		if ev.Type == "fault" && !deleted {
			deleted = true
			req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/campaigns/"+id, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE mid-injection: status %d, want 200", dresp.StatusCode)
			}
		}
	}
	if !deleted {
		t.Fatal("stream ended before any fault event; campaign never reached injection")
	}
	if last != "cancelled" {
		t.Fatalf("stream ended on %q, want terminal cancelled event", last)
	}

	// Status is terminal cancelled, retaining the partial report (the
	// classified-so-far distribution plus the Cancelled count).
	sresp, err := http.Get(hs.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st campaignStatus
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "cancelled" {
		t.Fatalf("status = %q, want cancelled", st.Status)
	}
	partial := new(Report)
	if err := json.Unmarshal(st.Report, partial); err != nil {
		t.Fatalf("cancelled campaign lost its partial report: %v", err)
	}
	if partial.Cancelled == 0 {
		t.Fatalf("partial report has no Cancelled count: %+v", partial)
	}

	// The runner is freed: a follow-up campaign on the same single
	// runner runs to completion, and /statsz shows nothing left running.
	_, rep := campaignWait(t, hs.URL, postCampaign(t, hs.URL,
		`{"workload":"sha","structure":"RF","faults":100,"seed":2,"strategy":"forked"}`))
	if rep.Dist.Total() != 100 {
		t.Fatalf("post-cancel campaign classified %d of 100", rep.Dist.Total())
	}
	statsResp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		Campaigns map[string]int `json:"campaigns"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Campaigns["running"] != 0 || stats.Campaigns["cancelled"] != 1 || stats.Campaigns["done"] != 1 {
		t.Fatalf("statsz campaigns = %v, want 0 running / 1 cancelled / 1 done", stats.Campaigns)
	}
}

// TestDaemonRefusesRetiredCheckpointed: the checkpointed preset, the
// grouping-ablation knobs and the static pre-pruner are gone from the
// wire. A submission carrying a removed field is a 400 naming the field,
// one naming the checkpointed strategy a 400 listing the two that remain,
// and a record an older daemon left interrupted with a removed field
// fails at restore naming it instead of running something else.
func TestDaemonRefusesRetiredCheckpointed(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	interrupted := map[string]string{
		"c000007": `{"workload":"sha","structure":"RF","faults":50,"strategy":"checkpointed","checkpoints":4}`,
		"c000008": `{"workload":"sha","structure":"RF","faults":50,"disable_byte_grouping":true}`,
		"c000009": `{"workload":"sha","structure":"RF","faults":50,"static_prune":true}`,
	}
	for id, old := range interrupted {
		if err := reg.Put(store.CampaignRecord{ID: id, Kind: "campaign", Status: "running",
			Request: []byte(old), Outcomes: map[int]string{0: "Masked"}}); err != nil {
			t.Fatal(err)
		}
	}
	hs := daemon(t, ServeOptions{Registry: reg})

	for body, want := range map[string]string{
		`{"workload":"sha","structure":"RF","faults":50,"checkpoints":4}`:           `unknown field "checkpoints"`,
		`{"workload":"sha","structure":"RF","faults":50,"strategy":"checkpointed"}`: "want replay or forked",
		`{"workload":"sha","structure":"RF","faults":50,"reps_per_group":2}`:        `unknown field "reps_per_group"`,
		`{"workload":"sha","structure":"RF","faults":50,"static_prune":true}`:       `unknown field "static_prune"`,
	} {
		resp, err := http.Post(hs.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, want) {
			t.Errorf("POST %s: status %d error %q (%v), want 400 containing %q", body, resp.StatusCode, out.Error, err, want)
		}
	}

	for id, want := range map[string]string{
		"c000007": `unknown field "checkpoints"`,
		"c000008": `unknown field "disable_byte_grouping"`,
		"c000009": `unknown field "static_prune"`,
	} {
		resp, err := http.Get(hs.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st campaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "failed" || !strings.Contains(st.Error, want) {
			t.Errorf("restored record %s: status %q error %q, want failed naming %s", id, st.Status, st.Error, want)
		}
	}
}

// TestDaemonBatchEndToEnd is the daemon-level batch acceptance test: POST
// /batches runs a real 3-structure batch over one shared golden run,
// streams structure-tagged NDJSON events, and serves a BatchReport whose
// per-structure entries match standalone library sessions.
func TestDaemonBatchEndToEnd(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := daemon(t, ServeOptions{Cache: cache})

	body := `{"workload":"sha","structures":["RF","SQ","L1D"],"faults":200,"seed":11,"strategy":"forked"}`
	resp, err := http.Post(hs.URL+"/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var posted struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /batches = %d: %s", resp.StatusCode, posted.Error)
	}

	_, rep := batchWait(t, hs.URL, posted.ID)

	if rep.GoldenRuns != 1 {
		t.Fatalf("batch performed %d golden runs, want exactly 1", rep.GoldenRuns)
	}

	// Per-structure results match standalone library sessions over the same
	// knobs.
	var solos []*Report
	for _, structure := range []Structure{RF, SQ, L1D} {
		solos = append(solos, libraryReports(t, "sha", []Structure{structure},
			WithFaults(200), WithSeed(11), WithStrategy(StrategyForked))...)
	}
	sameReports(t, "batch member", rep.Reports, solos)

	// The event stream is structure-tagged and ends with the batch summary
	// before the terminal done event.
	resp, err = http.Get(hs.URL + "/batches/" + posted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	perStructure := map[string]int{}
	var sawBatch bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "fault", "inject":
			perStructure[ev.Structure]++
		case "batch":
			sawBatch = true
		}
	}
	for _, s := range []string{"RF", "SQ", "L1D"} {
		if perStructure[s] == 0 {
			t.Fatalf("event stream carried no %s-tagged events: %v", s, perStructure)
		}
	}
	if !sawBatch {
		t.Fatal("event stream carried no batch summary event")
	}
}

// TestDaemonLogIsTheProgressStream: the daemon's NDJSON log of a record
// carries the very records a WithProgress subscriber to StartBatch with
// the same options receives. The log adds lifecycle and shard markers,
// which are filtered out; fault events arrive in completion order, so the
// streams compare as multisets, with the wall-clock figures (time, the
// inject and batch summaries' durations and rates) masked. On the wire,
// only fault lines carry "index".
func TestDaemonLogIsTheProgressStream(t *testing.T) {
	req := CampaignRequest{Workload: "sha", Structures: []string{"RF", "SQ"}, Faults: 100, Seed: 5}
	opts, err := requestOptions(req, nil, NewSnapshotCache(0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var library []CampaignEvent
	ctx := context.Background()
	b, err := StartBatch(ctx, req.Workload, append(opts, WithProgress(func(ev CampaignEvent) {
		mu.Lock()
		defer mu.Unlock()
		library = append(library, ev)
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}

	hs := daemon(t, ServeOptions{})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	id := postCampaign(t, hs.URL, string(body))
	batchWait(t, hs.URL, id)
	logged := campaignEvents(t, hs.URL, id)

	// On the wire, "index" belongs to fault lines only, index 0 included.
	resp, err := http.Get(hs.URL + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	zeros := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		idx, has := line["index"]
		if has != (line["type"] == "fault") {
			t.Errorf("index present=%v on a %v line: %s", has, line["type"], sc.Text())
		}
		if idx == 0.0 {
			zeros++
		}
	}
	if zeros != len(req.Structures) {
		t.Errorf("%d fault lines carry index 0, want one per structure (%d)", zeros, len(req.Structures))
	}

	timing := regexp.MustCompile(`in [^ ]+ \([^ ]+ cycles/s;|done in [^:]+:`)
	multiset := func(evs []CampaignEvent) map[string]int {
		m := map[string]int{}
		for _, ev := range evs {
			switch ev.Type {
			case "preprocess", "reduce", "fault", "inject", "batch":
			default:
				continue
			}
			ev.Seq, ev.Time, ev.CyclesPerSec = 0, time.Time{}, 0
			ev.Msg = timing.ReplaceAllString(ev.Msg, "<timing>")
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			m[string(line)]++
		}
		return m
	}
	got, want := multiset(logged), multiset(library)
	if countEvents(logged, "fault") == 0 || countEvents(logged, "batch") != 1 {
		t.Fatalf("daemon log carried %d fault and %d batch events", countEvents(logged, "fault"), countEvents(logged, "batch"))
	}
	if !reflect.DeepEqual(got, want) {
		for line, n := range want {
			if got[line] != n {
				t.Errorf("library x%d, daemon x%d: %s", n, got[line], line)
			}
		}
		for line, n := range got {
			if _, ok := want[line]; !ok {
				t.Errorf("daemon only x%d: %s", n, line)
			}
		}
	}
}

// TestDaemonBatchCancelWholeBatch: DELETE /batches/{id} cancels every
// structure of a running list record — the record turns "cancelled",
// frees its worker, and keeps the partial BatchReport: the structure that
// finished before the DELETE is complete, the one under injection partial.
func TestDaemonBatchCancelWholeBatch(t *testing.T) {
	hs := daemon(t, ServeOptions{})

	// Big enough for the second structure to still be mid-injection when
	// the DELETE lands.
	id := postCampaign(t, hs.URL,
		`{"workload":"sha","structures":["RF","SQ"],"faults":60000,"seed":3,"workers":1,"strategy":"replay"}`)

	// Stream until the first SQ outcome proves RF is finished and SQ is
	// mid-injection, then DELETE; keep draining to the terminal event.
	resp, err := http.Get(hs.URL + "/batches/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	deleted := false
	last := ""
	for sc.Scan() {
		var ev CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		last = ev.Type
		if ev.Type == "fault" && ev.Structure == "SQ" && !deleted {
			deleted = true
			req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/batches/"+id, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE /batches/{id} = %d, want 200", dresp.StatusCode)
			}
		}
	}
	if !deleted {
		t.Fatalf("stream ended on %q before any SQ fault event", last)
	}
	if last != "cancelled" {
		t.Fatalf("stream ended on %q, want terminal cancelled event", last)
	}

	sresp, err := http.Get(hs.URL + "/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st campaignStatus
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "cancelled" {
		t.Fatalf("status = %q, want cancelled", st.Status)
	}
	partial := new(BatchReport)
	if err := json.Unmarshal(st.Report, partial); err != nil {
		t.Fatalf("cancelled list record lost its partial report: %v", err)
	}
	if len(partial.Reports) != 2 || partial.Reports[0].Cancelled != 0 || partial.Reports[1].Cancelled == 0 {
		t.Fatalf("partial batch report = %+v, want a complete RF report and a partial SQ one", partial.Reports)
	}
}
