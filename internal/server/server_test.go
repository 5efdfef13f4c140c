package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePipeline is a controllable RunFunc: each campaign emits a fault
// event per entry of faults, optionally blocking on gate between events so
// tests can observe mid-campaign streaming.
type fakePipeline struct {
	mu   sync.Mutex
	gate map[string]chan struct{} // workload -> step gate (nil = free-running)
}

func (p *fakePipeline) run(ctx context.Context, job Job, emit func(Event)) (any, error) {
	req := job.Request
	if req.Workload == "explode" {
		return nil, fmt.Errorf("synthetic failure")
	}
	if req.Workload == "panic" {
		panic("synthetic panic")
	}
	hit := false
	emit(Event{Type: "preprocess", Msg: "golden loaded", CacheHit: &hit})
	p.mu.Lock()
	gate := p.gate[req.Workload]
	p.mu.Unlock()
	// Batch requests fan the faults out per structure, tagging each event,
	// mirroring the real pipeline's interleaved batch log.
	structures := req.Structures
	if len(structures) == 0 {
		structures = []string{""}
	}
	for _, structure := range structures {
		for i := 0; i < req.Faults; i++ {
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			emit(Event{Type: "fault", Structure: structure, Index: &i,
				Fault: fmt.Sprintf("%s-fault-%d", req.Workload, i), Outcome: "Masked"})
		}
	}
	if len(req.Structures) > 0 {
		emit(Event{Type: "batch", Msg: "batch done"})
	}
	return map[string]any{"workload": req.Workload, "injected": req.Faults}, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

// The *At helpers take the endpoint tree ("/campaigns" or "/batches");
// the plain wrappers keep the single-campaign tests readable.
func submitAt(t *testing.T, base, tree string, req Request) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+tree, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func submit(t *testing.T, base string, req Request) string {
	t.Helper()
	return submitAt(t, base, "/campaigns", req)
}

func getStatusAt(t *testing.T, base, tree, id string) statusJSON {
	t.Helper()
	resp, err := http.Get(base + tree + "/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, base, id string) statusJSON {
	t.Helper()
	return getStatusAt(t, base, "/campaigns", id)
}

// waitDoneAt polls until the record reaches any terminal status and
// returns it — callers assert which terminal state they expected, and an
// unexpected "cancelled" surfaces immediately instead of timing out.
func waitDoneAt(t *testing.T, base, tree, id string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatusAt(t, base, tree, id)
		if terminalStatus(st.Status) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("record %s did not finish", id)
	return statusJSON{}
}

func waitDone(t *testing.T, base, id string) statusJSON {
	t.Helper()
	return waitDoneAt(t, base, "/campaigns", id)
}

// streamEventsAt collects a record's full event stream (blocking until it
// finishes and the server closes the stream).
func streamEventsAt(t *testing.T, base, tree, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + tree + "/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func streamEvents(t *testing.T, base, id string) []Event {
	t.Helper()
	return streamEventsAt(t, base, "/campaigns", id)
}

func TestSubmitRunAndReport(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run})

	id := submit(t, hs.URL, Request{Workload: "sha", Structure: "RF", Faults: 3})
	st := waitDone(t, hs.URL, id)
	if st.Status != StatusDone {
		t.Fatalf("status = %q, err = %q", st.Status, st.Error)
	}
	rep, ok := st.Report.(map[string]any)
	if !ok || rep["workload"] != "sha" {
		t.Fatalf("report = %#v", st.Report)
	}

	evs := streamEvents(t, hs.URL, id)
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d; stream must be dense and ordered", i, ev.Seq)
		}
	}
	want := []string{"queued", "started", "preprocess", "fault", "fault", "fault", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event types = %v, want %v", types, want)
	}
}

func TestFailureAndPanicAreIsolated(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run})

	for _, wl := range []string{"explode", "panic"} {
		id := submit(t, hs.URL, Request{Workload: wl, Structure: "RF"})
		st := waitDone(t, hs.URL, id)
		if st.Status != StatusFailed || st.Error == "" {
			t.Fatalf("%s: status = %q err = %q, want failed with message", wl, st.Status, st.Error)
		}
		evs := streamEvents(t, hs.URL, id)
		if evs[len(evs)-1].Type != "failed" {
			t.Fatalf("%s: last event = %+v, want failed", wl, evs[len(evs)-1])
		}
	}

	// The pool survives: a healthy campaign still runs to completion.
	id := submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
	if st := waitDone(t, hs.URL, id); st.Status != StatusDone {
		t.Fatalf("post-panic campaign: %q", st.Status)
	}
}

// TestConcurrentCampaignStreaming runs two gated campaigns at once and
// asserts (a) both streams deliver per-fault events while both campaigns
// are mid-flight, and (b) each stream only carries its own campaign's
// events — the isolation clause of the acceptance criteria.
func TestConcurrentCampaignStreaming(t *testing.T) {
	gateA := make(chan struct{})
	gateB := make(chan struct{})
	p := &fakePipeline{gate: map[string]chan struct{}{"alpha": gateA, "beta": gateB}}
	_, hs := newTestServer(t, Config{Run: p.run, Concurrency: 2})

	idA := submit(t, hs.URL, Request{Workload: "alpha", Structure: "RF", Faults: 2})
	idB := submit(t, hs.URL, Request{Workload: "beta", Structure: "SQ", Faults: 2})

	type streamResult struct {
		id  string
		evs []Event
	}
	results := make(chan streamResult, 2)
	for _, id := range []string{idA, idB} {
		go func(id string) {
			resp, err := http.Get(hs.URL + "/campaigns/" + id + "/events")
			if err != nil {
				t.Error(err)
				results <- streamResult{id: id}
				return
			}
			defer resp.Body.Close()
			var evs []Event
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Error(err)
					break
				}
				evs = append(evs, ev)
			}
			results <- streamResult{id: id, evs: evs}
		}(id)
	}

	// Interleave: one fault from A while B is stalled, one from B while A
	// is stalled, then release the rest.
	gateA <- struct{}{}
	gateB <- struct{}{}
	gateA <- struct{}{}
	gateB <- struct{}{}

	byID := map[string][]Event{}
	for i := 0; i < 2; i++ {
		r := <-results
		byID[r.id] = r.evs
	}

	for id, wl := range map[string]string{idA: "alpha", idB: "beta"} {
		evs := byID[id]
		var faults int
		for _, ev := range evs {
			if ev.Type != "fault" {
				continue
			}
			faults++
			if !strings.HasPrefix(ev.Fault, wl+"-fault-") {
				t.Fatalf("campaign %s stream leaked foreign event %+v", id, ev)
			}
		}
		if faults != 2 {
			t.Fatalf("campaign %s stream carried %d fault events, want 2", id, faults)
		}
		if evs[len(evs)-1].Type != "done" {
			t.Fatalf("campaign %s stream ended with %+v", id, evs[len(evs)-1])
		}
	}
}

// TestEventStreamResume: ?from=N replays only the suffix.
func TestEventStreamResume(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run})
	id := submit(t, hs.URL, Request{Workload: "sha", Structure: "RF", Faults: 3})
	waitDone(t, hs.URL, id)

	all := streamEvents(t, hs.URL, id)
	resp, err := http.Get(hs.URL + "/campaigns/" + id + "/events?from=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Count(strings.TrimSpace(string(raw)), "\n") + 1
	if want := len(all) - 4; lines != want {
		t.Fatalf("resumed stream has %d events, want %d", lines, want)
	}
}

// TestBoundedQueueSheds: submissions past the pending bound are refused
// with 429 and leave no campaign record behind.
func TestBoundedQueueSheds(t *testing.T) {
	gate := make(chan struct{})
	p := &fakePipeline{gate: map[string]chan struct{}{"slow": gate}}
	s, hs := newTestServer(t, Config{Run: p.run, Concurrency: 1, QueueDepth: 2})
	defer close(gate)

	// One running (pulled off the queue) + two queued = at capacity.
	ids := []string{
		submit(t, hs.URL, Request{Workload: "slow", Structure: "RF", Faults: 1}),
	}
	waitRunning(t, hs.URL, ids[0])
	ids = append(ids,
		submit(t, hs.URL, Request{Workload: "slow", Structure: "RF", Faults: 1}),
		submit(t, hs.URL, Request{Workload: "slow", Structure: "RF", Faults: 1}),
	)

	body, _ := json.Marshal(Request{Workload: "slow", Structure: "RF", Faults: 1})
	resp, err := http.Post(hs.URL+"/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	s.mu.Lock()
	n := len(s.campaigns)
	s.mu.Unlock()
	if n != len(ids) {
		t.Fatalf("%d campaign records after shed, want %d (rejected submission must leave no residue)", n, len(ids))
	}

	// Queue depth is observable on /statsz.
	var stats struct {
		QueueDepth int `json:"queue_depth"`
	}
	sresp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.QueueDepth != 2 {
		t.Fatalf("queue_depth = %d, want 2", stats.QueueDepth)
	}
}

// TestNoHeadOfLineBlocking: with the default config a record never waits
// while a runner is idle. One long-running record stays in flight while
// short ones come and go; the next DefaultConcurrency-1 submissions must
// all start beside it — under the old id-hashed shard queues the first of
// them landed on the long record's shard and sat behind it with three
// runners idle. Only once every runner is busy does the queue fill,
// shedding exactly at the total pending bound.
func TestNoHeadOfLineBlocking(t *testing.T) {
	gate := make(chan struct{})
	p := &fakePipeline{gate: map[string]chan struct{}{"slow": gate}}
	_, hs := newTestServer(t, Config{Run: p.run})
	defer close(gate)
	slow := Request{Workload: "slow", Structure: "RF", Faults: 1}

	waitRunning(t, hs.URL, submit(t, hs.URL, slow))
	for i := 1; i < DefaultConcurrency; i++ {
		waitDone(t, hs.URL, submit(t, hs.URL, Request{Workload: "quick", Structure: "RF", Faults: 1}))
	}
	for i := 1; i < DefaultConcurrency; i++ {
		waitRunning(t, hs.URL, submit(t, hs.URL, slow))
	}

	// Every runner is busy: submissions now queue, up to the bound.
	for i := 0; i < DefaultQueueDepth; i++ {
		submit(t, hs.URL, slow)
	}
	body, _ := json.Marshal(slow)
	resp, err := http.Post(hs.URL+"/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission past %d running + %d queued: status %d, want 429 exactly at the total bound",
			DefaultConcurrency, DefaultQueueDepth, resp.StatusCode)
	}
}

func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if getStatus(t, base, id).Status == StatusRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never started", id)
}

func TestValidationRejectsAtSubmit(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{
		Run: p.run,
		Validate: func(r Request) error {
			if r.Workload == "" {
				return fmt.Errorf("workload required")
			}
			return nil
		},
	})
	body, _ := json.Marshal(Request{Structure: "RF"})
	resp, err := http.Post(hs.URL+"/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit: status %d, want 400", resp.StatusCode)
	}

	// Unknown JSON fields are also rejected, not silently dropped.
	resp2, err := http.Post(hs.URL+"/campaigns", "application/json",
		strings.NewReader(`{"workload":"sha","structure":"RF","fautls":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field submit: status %d, want 400", resp2.StatusCode)
	}
}

func TestHealthzAndListAndNotFound(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run, Stats: func() map[string]any {
		return map[string]any{"cache": map[string]int{"hits": 7}}
	}})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || !health.OK {
		t.Fatalf("healthz: %v ok=%v", err, health.OK)
	}

	id1 := submit(t, hs.URL, Request{Workload: "a", Structure: "RF"})
	id2 := submit(t, hs.URL, Request{Workload: "b", Structure: "RF"})
	waitDone(t, hs.URL, id1)
	waitDone(t, hs.URL, id2)

	lresp, err := http.Get(hs.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct{ Campaigns []statusJSON }
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != id2 {
		t.Fatalf("list = %+v, want 2 campaigns newest first", list.Campaigns)
	}

	nf, err := http.Get(hs.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d, want 404", nf.StatusCode)
	}

	// statsz carries the injected cache stats.
	sresp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Cache map[string]int `json:"cache"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache["hits"] != 7 {
		t.Fatalf("statsz cache = %v", stats.Cache)
	}
}

// TestFinishedCampaignEviction: a long-running daemon keeps at most
// RetainFinished finished campaigns; the oldest are evicted on submission
// while unfinished campaigns are never touched.
func TestFinishedCampaignEviction(t *testing.T) {
	p := &fakePipeline{}
	s, hs := newTestServer(t, Config{Run: p.run, Concurrency: 1, RetainFinished: 2})

	var ids []string
	for i := 0; i < 4; i++ {
		id := submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
		waitDone(t, hs.URL, id)
		ids = append(ids, id)
	}
	// Evictions happen at submission time; this fifth campaign triggers
	// one that sees four finished records.
	last := submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
	waitDone(t, hs.URL, last)

	s.mu.Lock()
	n := len(s.campaigns)
	s.mu.Unlock()
	if n > 3 { // 2 retained finished + the (possibly finished) last
		t.Fatalf("%d campaign records retained, want <= 3", n)
	}

	// The oldest campaigns are gone from the API; the newest survive.
	resp, err := http.Get(hs.URL + "/campaigns/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted campaign: status %d, want 404", resp.StatusCode)
	}
	if st := getStatus(t, hs.URL, last); st.Status != StatusDone {
		t.Fatalf("latest campaign lost: %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	p := &fakePipeline{}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a Config without Run")
	}
	for name, cfg := range map[string]Config{
		"negative concurrency": {Run: p.run, Concurrency: -1},
		"negative queue":       {Run: p.run, QueueDepth: -3},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}

// waitStatus polls until the campaign reaches want.
func waitStatus(t *testing.T, base, id, want string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.Status == want {
			return st
		}
		if terminalStatus(st.Status) && st.Status != want {
			t.Fatalf("campaign %s reached terminal %q, want %q (err %q)", id, st.Status, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %q", id, want)
	return statusJSON{}
}

func del(t *testing.T, base, id string) (int, map[string]string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// TestCancelQueuedRunningAndFinished is the DELETE differential: a queued
// campaign cancels instantly (200), a running one is cancelled through
// its context (200) and frees the runner for the next queued
// campaign, and a finished one refuses with 409. Attached streamers
// receive the terminal "cancelled" NDJSON event in every cancelled case.
func TestCancelQueuedRunningAndFinished(t *testing.T) {
	gate := make(chan struct{})
	p := &fakePipeline{gate: map[string]chan struct{}{"slow": gate}}
	_, hs := newTestServer(t, Config{Run: p.run, Concurrency: 1})

	running := submit(t, hs.URL, Request{Workload: "slow", Structure: "RF", Faults: 100})
	waitRunning(t, hs.URL, running)
	queued := submit(t, hs.URL, Request{Workload: "slow", Structure: "RF", Faults: 100})

	// Attach streamers before cancelling so the terminal event is pushed
	// to live clients.
	streams := make(chan []Event, 2)
	for _, id := range []string{running, queued} {
		go func(id string) { streams <- streamEvents(t, hs.URL, id) }(id)
	}
	time.Sleep(10 * time.Millisecond) // let the streamers attach

	// Queued: terminal immediately.
	if code, body := del(t, hs.URL, queued); code != http.StatusOK || body["status"] != StatusCancelled {
		t.Fatalf("DELETE queued: %d %v, want 200 cancelled", code, body)
	}
	if st := getStatus(t, hs.URL, queued); st.Status != StatusCancelled {
		t.Fatalf("queued campaign status = %q after DELETE", st.Status)
	}

	// Running: 200, then terminal once the worker observes the context.
	if code, body := del(t, hs.URL, running); code != http.StatusOK || body["status"] != "cancelling" {
		t.Fatalf("DELETE running: %d %v, want 200 cancelling", code, body)
	}
	waitStatus(t, hs.URL, running, StatusCancelled)

	// Both streams terminate with the cancelled event.
	for i := 0; i < 2; i++ {
		evs := <-streams
		if len(evs) == 0 || evs[len(evs)-1].Type != "cancelled" {
			t.Fatalf("stream ended without terminal cancelled event: %+v", evs)
		}
	}

	// The runner is free again: a fresh campaign runs to completion.
	free := submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
	if st := waitDone(t, hs.URL, free); st.Status != StatusDone {
		t.Fatalf("post-cancel campaign: %q (runner not freed?)", st.Status)
	}

	// Finished: 409, status untouched.
	if code, _ := del(t, hs.URL, free); code != http.StatusConflict {
		t.Fatalf("DELETE finished: %d, want 409", code)
	}
	if st := getStatus(t, hs.URL, free); st.Status != StatusDone {
		t.Fatalf("finished campaign status mutated by DELETE: %q", st.Status)
	}
	// Already-cancelled: also 409 (terminal), and unknown ids 404.
	if code, _ := del(t, hs.URL, queued); code != http.StatusConflict {
		t.Fatalf("DELETE cancelled: want 409")
	}
	if code, _ := del(t, hs.URL, "nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: want 404")
	}
}

// TestDeadlineMS: a per-request deadline bounds a stuck campaign, failing
// it with a deadline error while the runner moves on; negative deadlines
// are rejected at submission.
func TestDeadlineMS(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	p := &fakePipeline{gate: map[string]chan struct{}{"slow": gate}}
	_, hs := newTestServer(t, Config{Run: p.run, Concurrency: 1})

	id := submit(t, hs.URL, Request{Workload: "slow", Structure: "RF", Faults: 100, DeadlineMS: 30})
	st := waitDone(t, hs.URL, id)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadlined campaign: status %q err %q, want failed with deadline message", st.Status, st.Error)
	}

	// The runner survived the deadline.
	ok := submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
	if st := waitDone(t, hs.URL, ok); st.Status != StatusDone {
		t.Fatalf("post-deadline campaign: %q", st.Status)
	}

	body, _ := json.Marshal(Request{Workload: "ok", Structure: "RF", DeadlineMS: -1})
	resp, err := http.Post(hs.URL+"/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchSubmitRunAndEvents: the /batches tree runs a multi-structure
// submission through the same machinery — status carries kind "batch",
// the report arrives, and the event stream interleaves structure-tagged
// fault events.
func TestBatchSubmitRunAndEvents(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run})

	id := submitAt(t, hs.URL, "/batches", Request{
		Workload: "sha", Structures: []string{"RF", "SQ"}, Faults: 2})
	if !strings.HasPrefix(id, "b") {
		t.Fatalf("batch id = %q, want b-prefixed", id)
	}
	st := waitDoneAt(t, hs.URL, "/batches", id)
	if st.Status != StatusDone || st.Kind != KindBatch {
		t.Fatalf("status = %q kind = %q, want done/batch (err %q)", st.Status, st.Kind, st.Error)
	}
	if st.Report == nil {
		t.Fatal("finished batch has no report")
	}

	evs := streamEventsAt(t, hs.URL, "/batches", id)
	perStructure := map[string]int{}
	var batchEvent bool
	for _, ev := range evs {
		switch ev.Type {
		case "fault":
			perStructure[ev.Structure]++
		case "batch":
			batchEvent = true
		}
	}
	if perStructure["RF"] != 2 || perStructure["SQ"] != 2 {
		t.Fatalf("structure-tagged fault events = %v, want 2 per structure", perStructure)
	}
	if !batchEvent {
		t.Fatal("stream carried no batch summary event")
	}
}

// TestTreesAreAliases: /campaigns and /batches are one handler set. Any id
// resolves under either prefix with the same body (status, events,
// cancel), both lists carry both kinds newest-first by numeric id, and
// kind is derived from which target field the request used — never from
// the prefix it was posted to.
func TestTreesAreAliases(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run})

	// Posted "against the grain": a list under /campaigns, a single
	// structure under /batches.
	bid := submitAt(t, hs.URL, "/campaigns", Request{Workload: "sha", Structures: []string{"RF"}, Faults: 1})
	cid := submitAt(t, hs.URL, "/batches", Request{Workload: "sha", Structure: "RF", Faults: 1})
	if !strings.HasPrefix(bid, "b") || !strings.HasPrefix(cid, "c") {
		t.Fatalf("ids = %q, %q; want a b-prefixed list record and a c-prefixed single one", bid, cid)
	}
	if st := waitDoneAt(t, hs.URL, "/batches", cid); st.Kind != KindCampaign {
		t.Fatalf("single-structure record kind = %q, want %q", st.Kind, KindCampaign)
	}
	if st := waitDone(t, hs.URL, bid); st.Kind != KindBatch {
		t.Fatalf("list record kind = %q, want %q", st.Kind, KindBatch)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	for _, id := range []string{bid, cid} {
		for _, suffix := range []string{"", "/events"} {
			codeC, bodyC := get("/campaigns/" + id + suffix)
			codeB, bodyB := get("/batches/" + id + suffix)
			if codeC != http.StatusOK || codeB != http.StatusOK || bodyC != bodyB {
				t.Fatalf("%s%s: /campaigns = %d, /batches = %d, bodies equal = %v; want 200 twice with one body",
					id, suffix, codeC, codeB, bodyC == bodyB)
			}
		}
	}
	// DELETE resolves across prefixes too: both records are finished, so 409
	// (not 404) either way.
	for _, path := range []string{"/campaigns/" + bid, "/batches/" + cid} {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("DELETE %s = %d, want 409", path, resp.StatusCode)
		}
	}

	// One list, newest first by numeric id across the b/c prefixes
	// (lexicographic order would put every c id before every b id).
	cid2 := submit(t, hs.URL, Request{Workload: "sha", Structure: "SQ", Faults: 1})
	waitDone(t, hs.URL, cid2)
	_, listC := get("/campaigns")
	_, listB := get("/batches")
	if listC != listB {
		t.Fatalf("lists differ across prefixes:\n%s\n%s", listC, listB)
	}
	var list struct {
		Campaigns []statusJSON `json:"campaigns"`
	}
	if err := json.Unmarshal([]byte(listC), &list); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range list.Campaigns {
		ids = append(ids, st.ID)
	}
	if want := []string{cid2, cid, bid}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("list order = %v, want %v (newest first across kinds)", ids, want)
	}
}

// TestBatchSubmitValidation: a submission names its target exactly once —
// structure and structures together, or neither, are 400 under both
// prefixes.
func TestBatchSubmitValidation(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run})

	for _, tree := range []string{"/campaigns", "/batches"} {
		for name, req := range map[string]Request{
			"neither": {Workload: "sha"},
			"both":    {Workload: "sha", Structure: "RF", Structures: []string{"RF"}},
		} {
			body, _ := json.Marshal(req)
			resp, err := http.Post(hs.URL+tree, "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s with %s target field = %d, want 400", tree, name, resp.StatusCode)
			}
		}
	}
}

// TestBatchCancelCancelsWholeBatch: one DELETE on a mid-flight batch
// stops every structure — the terminal status is "cancelled" and the
// stream ends with the cancelled event.
func TestBatchCancelCancelsWholeBatch(t *testing.T) {
	gate := make(chan struct{})
	p := &fakePipeline{gate: map[string]chan struct{}{"gated": gate}}
	_, hs := newTestServer(t, Config{Run: p.run})

	id := submitAt(t, hs.URL, "/batches", Request{
		Workload: "gated", Structures: []string{"RF", "SQ", "L1D"}, Faults: 100})
	gate <- struct{}{} // first fault of the first structure is in flight

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/batches/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE batch = %d, want 200", resp.StatusCode)
	}

	st := waitDoneAt(t, hs.URL, "/batches", id)
	if st.Status != StatusCancelled {
		t.Fatalf("cancelled batch status = %q, want cancelled", st.Status)
	}
	evs := streamEventsAt(t, hs.URL, "/batches", id)
	if last := evs[len(evs)-1]; last.Type != "cancelled" {
		t.Fatalf("last event = %+v, want cancelled", last)
	}
}

// TestEventLogRingBuffer: the per-campaign log is capped — old events are
// dropped, sequence numbers stay dense and monotonic, the status reports
// the drop count, and a streamer resuming into the dropped range gets an
// explicit "truncated" marker instead of a silent skip.
func TestEventLogRingBuffer(t *testing.T) {
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run, MaxEventsPerCampaign: 16})

	// queued + started + preprocess + 100 faults + done ≫ 16.
	id := submit(t, hs.URL, Request{Workload: "big", Structure: "RF", Faults: 100})
	st := waitDone(t, hs.URL, id)
	if st.Status != StatusDone {
		t.Fatalf("status = %q err %q", st.Status, st.Error)
	}
	if st.Events != 104 {
		t.Fatalf("events total = %d, want 104 (dense numbering across drops)", st.Events)
	}
	if st.DroppedEvents == 0 || st.DroppedEvents >= st.Events {
		t.Fatalf("dropped_events = %d of %d, want 0 < dropped < total", st.DroppedEvents, st.Events)
	}

	// A full stream from 0 starts with the truncated marker naming the gap,
	// then the retained tail with monotonic seqs ending in "done".
	evs := streamEvents(t, hs.URL, id)
	if evs[0].Type != "truncated" || evs[0].Seq != 0 {
		t.Fatalf("first event = %+v, want truncated marker at seq 0", evs[0])
	}
	if !strings.Contains(evs[0].Msg, "dropped") {
		t.Fatalf("truncated marker msg = %q", evs[0].Msg)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seqs not monotonic at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Type != "done" || last.Seq != st.Events-1 {
		t.Fatalf("last event = %+v, want done at seq %d", last, st.Events-1)
	}

	// Resuming from a seq inside the retained window gets no marker.
	tail := evs[len(evs)-1].Seq
	resp, err := http.Get(hs.URL + "/campaigns/" + id + "/events?from=" + fmt.Sprint(tail))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(raw), "truncated") {
		t.Fatalf("in-window resume produced a truncated marker: %s", raw)
	}
	// Resuming from beyond the end of a finished log yields nothing.
	resp2, err := http.Get(hs.URL + "/campaigns/" + id + "/events?from=" + fmt.Sprint(st.Events))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if strings.TrimSpace(string(raw2)) != "" {
		t.Fatalf("past-the-end resume produced events: %s", raw2)
	}
}

// fakeRegistry is an in-memory Registry for exercising the durability
// paths without the store package (the server must stay pipeline- and
// storage-agnostic).
type fakeRegistry struct {
	mu   sync.Mutex
	recs map[string]Record
	puts int
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{recs: make(map[string]Record)}
}

func (r *fakeRegistry) Put(rec Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs[rec.ID] = rec
	r.puts++
	return nil
}

func (r *fakeRegistry) List() ([]Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.recs))
	for _, rec := range r.recs {
		out = append(out, rec)
	}
	return out, nil
}

func (r *fakeRegistry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.recs, id)
	return nil
}

func (r *fakeRegistry) get(id string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.recs[id]
	return rec, ok
}

// TestRegistryPersistsLifecycle: with a registry configured, a campaign's
// record is durable at every stage and ends terminal with the report
// JSON; evicted campaigns leave the registry too.
func TestRegistryPersistsLifecycle(t *testing.T) {
	reg := newFakeRegistry()
	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run, Concurrency: 1, Registry: reg, RetainFinished: 2})

	id := submit(t, hs.URL, Request{Workload: "sha", Structure: "RF", Faults: 2})
	waitDone(t, hs.URL, id)
	rec, ok := reg.get(id)
	if !ok {
		t.Fatal("finished campaign missing from registry")
	}
	if rec.Status != StatusDone || rec.Kind != KindCampaign {
		t.Fatalf("record = %+v, want done campaign", rec)
	}
	var rep map[string]any
	if err := json.Unmarshal(rec.Report, &rep); err != nil || rep["workload"] != "sha" {
		t.Fatalf("persisted report = %s (%v)", rec.Report, err)
	}
	var req Request
	if err := json.Unmarshal(rec.Request, &req); err != nil || req.Workload != "sha" {
		t.Fatalf("persisted request = %s (%v)", rec.Request, err)
	}

	// Eviction drops registry records alongside memory.
	var last string
	for i := 0; i < 4; i++ {
		last = submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
		waitDone(t, hs.URL, last)
	}
	if _, ok := reg.get(id); ok {
		t.Fatal("evicted campaign still in registry")
	}
	if _, ok := reg.get(last); !ok {
		t.Fatal("retained campaign missing from registry")
	}
}

// TestRegistryRestore: a new server over an existing registry restores
// terminal records (report intact, queryable, with a "restored" event)
// and re-enqueues interrupted ones as queued with their checkpointed
// outcomes — the resumed run sees them in Job.Resume. Id minting
// continues after the restored maximum.
func TestRegistryRestore(t *testing.T) {
	reg := newFakeRegistry()
	doneReq, _ := json.Marshal(Request{Workload: "sha", Structure: "RF", Faults: 2})
	reg.Put(Record{
		ID: "c000003", Kind: KindCampaign, Status: StatusDone,
		Request: doneReq, Report: []byte(`{"workload":"sha","injected":2}`),
		Submitted: time.Now().Add(-time.Hour),
	})
	runReq, _ := json.Marshal(Request{Workload: "resume-me", Structure: "RF", Faults: 3})
	reg.Put(Record{
		ID: "c000007", Kind: KindCampaign, Status: StatusRunning,
		Request: runReq, Submitted: time.Now().Add(-time.Minute),
		Outcomes: map[int]string{0: "Masked", 1: "SDC"},
	})

	var gotResume map[int]string
	var resumeMu sync.Mutex
	p := &fakePipeline{}
	run := func(ctx context.Context, job Job, emit func(Event)) (any, error) {
		if job.Request.Workload == "resume-me" {
			resumeMu.Lock()
			gotResume = job.Resume
			resumeMu.Unlock()
		}
		return p.run(ctx, job, emit)
	}
	_, hs := newTestServer(t, Config{Run: run, Concurrency: 1, Registry: reg})

	// The terminal record is queryable with its report and restored marker.
	st := getStatus(t, hs.URL, "c000003")
	if st.Status != StatusDone {
		t.Fatalf("restored campaign status = %q", st.Status)
	}
	rep, ok := st.Report.(map[string]any)
	if !ok || rep["workload"] != "sha" {
		t.Fatalf("restored report = %#v", st.Report)
	}
	evs := streamEvents(t, hs.URL, "c000003")
	if len(evs) != 1 || evs[0].Type != "restored" {
		t.Fatalf("restored events = %+v, want single restored marker", evs)
	}

	// The interrupted record re-runs and completes; its rerun saw the
	// checkpoint.
	st = waitDone(t, hs.URL, "c000007")
	if st.Status != StatusDone {
		t.Fatalf("resumed campaign: status %q err %q", st.Status, st.Error)
	}
	resumeMu.Lock()
	resume := gotResume
	resumeMu.Unlock()
	if resume[0] != "Masked" || resume[1] != "SDC" {
		t.Fatalf("Job.Resume = %v, want the checkpointed outcomes", resume)
	}
	evs = streamEvents(t, hs.URL, "c000007")
	if evs[0].Type != "resumed" {
		t.Fatalf("resumed campaign's first event = %+v", evs[0])
	}

	// Fresh ids continue past the restored maximum.
	id := submit(t, hs.URL, Request{Workload: "ok", Structure: "RF", Faults: 1})
	if id != "c000008" {
		t.Fatalf("next id = %q, want c000008 (minting continues after restore)", id)
	}
}

// TestRestoreRefusesUnknownRequestField: a registry request carrying a
// field Request no longer has is decoded as strictly as a POST body. A
// running record with one becomes failed, naming the field, and is
// persisted that way instead of re-running without it; a done record with
// the same request still restores with its report.
func TestRestoreRefusesUnknownRequestField(t *testing.T) {
	reg := newFakeRegistry()
	old := []byte(`{"workload":"sha","structure":"RF","faults":2,"reps_per_group":2}`)
	reg.Put(Record{ID: "c000001", Kind: KindCampaign, Status: StatusDone,
		Request: old, Report: []byte(`{"workload":"sha","injected":2}`)})
	reg.Put(Record{ID: "c000002", Kind: KindCampaign, Status: StatusRunning,
		Request: old, Outcomes: map[int]string{0: "Masked"}})

	p := &fakePipeline{}
	_, hs := newTestServer(t, Config{Run: p.run, Concurrency: 1, Registry: reg})

	const want = `unknown field "reps_per_group"`
	st := getStatus(t, hs.URL, "c000002")
	if st.Status != StatusFailed || !strings.Contains(st.Error, want) {
		t.Fatalf("restored running record: status %q error %q, want failed naming %s", st.Status, st.Error, want)
	}
	if rec, _ := reg.get("c000002"); rec.Status != StatusFailed || !strings.Contains(rec.Error, want) {
		t.Fatalf("persisted record = %+v, want failed naming %s", rec, want)
	}

	st = getStatus(t, hs.URL, "c000001")
	if rep, ok := st.Report.(map[string]any); st.Status != StatusDone || !ok || rep["workload"] != "sha" {
		t.Fatalf("restored done record: status %q report %#v", st.Status, st.Report)
	}
}

// TestCheckpointPersistsOutcomes: Job.Checkpoint merges outcomes into the
// record and persists them promptly (first write immediate), so a crash
// right after leaves a resumable record.
func TestCheckpointPersistsOutcomes(t *testing.T) {
	reg := newFakeRegistry()
	gate := make(chan struct{})
	ckpt := make(chan struct{}, 1)
	run := func(ctx context.Context, job Job, emit func(Event)) (any, error) {
		job.Checkpoint(0, "Masked")
		select {
		case ckpt <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		job.Checkpoint(1, "SDC")
		return map[string]any{"ok": true}, nil
	}
	_, hs := newTestServer(t, Config{Run: run, Concurrency: 1, Registry: reg})

	id := submit(t, hs.URL, Request{Workload: "sha", Structure: "RF", Faults: 2})
	<-ckpt
	rec, ok := reg.get(id)
	if !ok || rec.Outcomes[0] != "Masked" {
		t.Fatalf("mid-run record = %+v, want checkpointed outcome 0", rec)
	}
	if rec.Status != StatusRunning {
		t.Fatalf("mid-run status = %q, want running", rec.Status)
	}
	if st := getStatus(t, hs.URL, id); st.Checkpointed != 1 {
		t.Fatalf("status checkpointed = %d, want 1", st.Checkpointed)
	}

	close(gate)
	waitDone(t, hs.URL, id)
	rec, _ = reg.get(id)
	if rec.Status != StatusDone || rec.Outcomes[1] != "SDC" {
		t.Fatalf("final record = %+v, want done with both outcomes", rec)
	}
}

// TestShutdownLeavesResumableRecord: Close during a run with a registry
// configured must NOT mark the campaign failed — the durable record stays
// "running" with its checkpoint so the next incarnation resumes it. The
// same shutdown without a registry keeps the old failed behavior.
func TestShutdownLeavesResumableRecord(t *testing.T) {
	reg := newFakeRegistry()
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, job Job, emit func(Event)) (any, error) {
		job.Checkpoint(0, "Masked")
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s, err := New(Config{Run: run, Concurrency: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(Request{Workload: "sha", Structure: "RF", Faults: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Close()

	rec, ok := reg.get(id)
	if !ok {
		t.Fatal("record missing after shutdown")
	}
	if rec.Status != StatusRunning {
		t.Fatalf("shutdown record status = %q, want running (resumable)", rec.Status)
	}
	if rec.Outcomes[0] != "Masked" {
		t.Fatalf("shutdown record lost its checkpoint: %+v", rec.Outcomes)
	}

	// A second server over the same registry resumes and finishes it.
	done := func(ctx context.Context, job Job, emit func(Event)) (any, error) {
		if job.Resume[0] != "Masked" {
			t.Errorf("resumed job lost checkpoint: %v", job.Resume)
		}
		return map[string]any{"resumed": true}, nil
	}
	s2, err := New(Config{Run: done, Concurrency: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, _ = reg.get(id)
		if rec.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed campaign never finished: %+v", rec)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
