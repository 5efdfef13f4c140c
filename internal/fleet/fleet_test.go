package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolLiveness: heartbeats auto-register, the TTL ages workers out,
// a fresh beat revives them, and Remove forgets them immediately.
func TestPoolLiveness(t *testing.T) {
	now := time.Now()
	p := NewPool(time.Second)
	p.now = func() time.Time { return now }

	if err := p.Heartbeat("w1", "http://a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat("", "http://a"); err == nil {
		t.Fatal("heartbeat accepted an empty id")
	}
	if alive := p.Alive(); len(alive) != 1 || alive[0].ID != "w1" || !alive[0].Alive {
		t.Fatalf("alive = %+v", alive)
	}

	now = now.Add(2 * time.Second) // past the TTL
	if alive := p.Alive(); len(alive) != 0 {
		t.Fatalf("stale worker still alive: %+v", alive)
	}
	if all := p.All(); len(all) != 1 || all[0].Alive {
		t.Fatalf("All = %+v, want one dead worker", all)
	}

	// A beat revives it, with a new address.
	p.Heartbeat("w1", "http://b")
	if alive := p.Alive(); len(alive) != 1 || alive[0].Addr != "http://b" {
		t.Fatalf("revived = %+v", alive)
	}
	p.Remove("w1")
	if all := p.All(); len(all) != 0 {
		t.Fatalf("removed worker lingers: %+v", all)
	}
}

// TestPoolHandler: the join/heartbeat/workers endpoints round-trip over
// HTTP, and alive sorting is by id.
func TestPoolHandler(t *testing.T) {
	p := NewPool(time.Minute)
	hs := httptest.NewServer(p.Handler())
	defer hs.Close()

	for _, id := range []string{"w2", "w1"} {
		body := fmt.Sprintf(`{"id":%q,"addr":"http://%s"}`, id, id)
		resp, err := http.Post(hs.URL+"/fleet/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			OK    bool  `json:"ok"`
			TTLms int64 `json:"ttl_ms"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.OK {
			t.Fatalf("join: %v ok=%v", err, out.OK)
		}
		resp.Body.Close()
		if out.TTLms != time.Minute.Milliseconds() {
			t.Fatalf("join ttl_ms = %d", out.TTLms)
		}
	}

	resp, err := http.Get(hs.URL + "/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 2 || list.Workers[0].ID != "w1" || !list.Workers[1].Alive {
		t.Fatalf("workers = %+v", list.Workers)
	}

	bad, err := http.Post(hs.URL+"/fleet/join", "application/json", strings.NewReader(`{"id":""}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty join = %d, want 400", bad.StatusCode)
	}
}

// fakeWorker serves an Agent-shaped /fleet/run that classifies every rep
// as "Masked". dieAfter > 0 makes it abort the connection after
// streaming that many outcomes — a crash mid-shard, as the coordinator
// sees it.
func fakeWorker(t *testing.T, name string, dieAfter *atomic.Int64, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	agent := &Agent{
		ID: name,
		Run: func(ctx context.Context, job ShardJob, emit func(Outcome)) (json.RawMessage, error) {
			if calls != nil {
				calls.Add(1)
			}
			for i, rep := range job.Reps {
				if dieAfter != nil {
					if n := dieAfter.Load(); n >= 0 && int64(i) >= n {
						panic(http.ErrAbortHandler) // kill the stream mid-shard
					}
				}
				emit(Outcome{Rep: rep, Outcome: "Masked"})
			}
			return json.Marshal(len(job.Reps))
		},
	}
	hs := httptest.NewServer(agent.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func dispatcherFor(p *Pool, got *sync.Map, localReps *[][]int, localMu *sync.Mutex) *Dispatcher {
	return &Dispatcher{
		Pool: p,
		Job: func(reps []int) ShardJob {
			return ShardJob{Campaign: "c000001", Reps: reps}
		},
		OnOutcome: func(o Outcome) { got.Store(o.Rep, o.Outcome) },
		Local: func(ctx context.Context, reps []int) error {
			localMu.Lock()
			*localReps = append(*localReps, reps)
			localMu.Unlock()
			for _, rep := range reps {
				got.Store(rep, "Masked")
			}
			return nil
		},
		backoff: 10 * time.Millisecond,
	}
}

func countSyncMap(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestDispatcherSpreadsShards: two healthy workers split the shards and
// every rep is classified exactly once, with no local fallback; each
// shard's done marker hands its work to OnWork.
func TestDispatcherSpreadsShards(t *testing.T) {
	var callsA, callsB atomic.Int64
	wA := fakeWorker(t, "wA", nil, &callsA)
	wB := fakeWorker(t, "wB", nil, &callsB)
	p := NewPool(time.Minute)
	p.Heartbeat("wA", wA.URL)
	p.Heartbeat("wB", wB.URL)

	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	var worked atomic.Int64 // reps the workers' done markers account for
	d.OnWork = func(work json.RawMessage) {
		var n int64
		if err := json.Unmarshal(work, &n); err != nil {
			t.Errorf("work %q: %v", work, err)
		}
		worked.Add(n)
	}

	shards := [][]int{{0, 1}, {2, 3}, {4}, {5, 6, 7}}
	if err := d.Run(context.Background(), shards); err != nil {
		t.Fatal(err)
	}
	if n := countSyncMap(&got); n != 8 {
		t.Fatalf("classified %d of 8 reps", n)
	}
	if worked.Load() != 8 {
		t.Fatalf("done markers reported work for %d reps, want 8", worked.Load())
	}
	if len(localReps) != 0 {
		t.Fatalf("healthy fleet fell back to local: %v", localReps)
	}
	if callsA.Load() == 0 || callsB.Load() == 0 {
		t.Fatalf("shards not spread: wA=%d wB=%d calls", callsA.Load(), callsB.Load())
	}
}

// TestDispatcherStealsFromDeadWorker: a worker that dies mid-stream has
// its unfinished reps requeued onto the survivor; everything still gets
// classified exactly once and the dead worker leaves the pool.
func TestDispatcherStealsFromDeadWorker(t *testing.T) {
	var dieAfter atomic.Int64
	dieAfter.Store(1) // stream one outcome, then break the connection
	wDead := fakeWorker(t, "wDead", &dieAfter, nil)
	wGood := fakeWorker(t, "wGood", nil, nil)
	p := NewPool(time.Minute)
	p.Heartbeat("a-dead", wDead.URL) // sorts first → gets shard 0
	p.Heartbeat("b-good", wGood.URL)

	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	d.attempts = 1 // first break requeues immediately

	var requeues atomic.Int64
	d.Emit = func(typ, msg string) {
		if typ == "requeue" {
			requeues.Add(1)
		}
	}

	shards := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	if err := d.Run(context.Background(), shards); err != nil {
		t.Fatal(err)
	}
	if n := countSyncMap(&got); n != 8 {
		t.Fatalf("classified %d of 8 reps after worker loss", n)
	}
	if requeues.Load() == 0 {
		t.Fatal("no requeue event despite a mid-stream death")
	}
	alive := p.Alive()
	if len(alive) != 1 || alive[0].ID != "b-good" {
		t.Fatalf("pool after loss = %+v, want only the survivor", alive)
	}
}

// TestDispatcherLocalFallbackWhenNoWorkers: with an empty pool the
// dispatcher degrades to in-process execution — single-node mode.
func TestDispatcherLocalFallbackWhenNoWorkers(t *testing.T) {
	p := NewPool(time.Minute)
	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)

	if err := d.Run(context.Background(), [][]int{{0, 1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if len(localReps) != 2 || countSyncMap(&got) != 3 {
		t.Fatalf("local fallback ran %d shards, classified %d reps", len(localReps), countSyncMap(&got))
	}
}

// TestDispatcherExhaustedRoundsFallBack: when every worker keeps dying,
// the dispatcher stops burning rounds and finishes the remainder locally
// rather than looping forever.
func TestDispatcherExhaustedRoundsFallBack(t *testing.T) {
	var dieAfter atomic.Int64 // die immediately, every time
	wDead := fakeWorker(t, "wDead", &dieAfter, nil)
	p := NewPool(time.Minute)

	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	d.attempts = 1
	d.rounds = 2

	// The worker re-heartbeats between rounds (Remove would otherwise
	// empty the pool and trigger the no-worker fallback, which is the
	// other test).
	d.Emit = func(typ, _ string) {
		if typ == "requeue" {
			p.Heartbeat("wDead", wDead.URL)
		}
	}
	p.Heartbeat("wDead", wDead.URL)

	if err := d.Run(context.Background(), [][]int{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if countSyncMap(&got) != 3 {
		t.Fatalf("classified %d of 3 reps", countSyncMap(&got))
	}
	if len(localReps) == 0 {
		t.Fatal("exhausted rounds did not fall back to local execution")
	}
}

// TestDispatcherContextCancel: a cancelled context stops the dispatch
// promptly with ctx.Err().
func TestDispatcherContextCancel(t *testing.T) {
	p := NewPool(time.Minute)
	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Run(ctx, [][]int{{0}}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAgentJoinAndHeartbeat: the agent joins with retry (coordinator up
// late), then heartbeats on the negotiated interval; the pool sees it
// alive. A coordinator restart (fresh pool) re-learns the worker from
// heartbeats alone.
func TestAgentJoinAndHeartbeat(t *testing.T) {
	var pool atomic.Pointer[Pool] // swapped on simulated coordinator restart
	pool.Store(NewPool(300 * time.Millisecond))
	var flaky atomic.Int64
	flaky.Store(2) // fail the first two joins to exercise the retry path
	mux := http.NewServeMux()
	mux.Handle("/fleet/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/join") && flaky.Add(-1) >= 0 {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		pool.Load().Handler().ServeHTTP(w, r)
	}))
	hs := httptest.NewServer(mux)
	defer hs.Close()

	agent := &Agent{
		ID:          "w1",
		Coordinator: hs.URL,
		Advertise:   "http://worker-1",
		Interval:    50 * time.Millisecond,
		Run:         func(context.Context, ShardJob, func(Outcome)) (json.RawMessage, error) { return nil, nil },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- agent.Start(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if alive := pool.Load().Alive(); len(alive) == 1 && alive[0].Addr == "http://worker-1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agent never became alive in the pool")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Simulate a coordinator restart: new empty pool behind the same URL.
	// Heartbeats auto-register, so the agent reappears without rejoining.
	pool.Store(NewPool(300 * time.Millisecond))
	deadline = time.Now().Add(5 * time.Second)
	for {
		if alive := pool.Load().Alive(); len(alive) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted coordinator never re-learned the worker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("agent exit = %v, want context.Canceled", err)
	}
}

// TestAgentHandlerStreamsDoneMarker: a clean shard ends with the done
// marker carrying the work its run returned; a failing shard carries the
// error on it instead.
func TestAgentHandlerStreamsDoneMarker(t *testing.T) {
	agent := &Agent{
		ID: "w1",
		Run: func(ctx context.Context, job ShardJob, emit func(Outcome)) (json.RawMessage, error) {
			for _, rep := range job.Reps {
				emit(Outcome{Rep: rep, Outcome: "SDC"})
			}
			if job.Campaign == "boom" {
				return nil, fmt.Errorf("synthetic shard failure")
			}
			return json.RawMessage(`{"cycles":7}`), nil
		},
	}
	hs := httptest.NewServer(agent.Handler())
	defer hs.Close()

	stream := func(campaign string) []streamLine {
		t.Helper()
		body, _ := json.Marshal(ShardJob{Campaign: campaign, Reps: []int{3, 5}})
		resp, err := http.Post(hs.URL+"/fleet/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var outs []streamLine
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var o streamLine
			if err := dec.Decode(&o); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, o)
		}
		return outs
	}

	outs := stream("ok")
	if len(outs) != 3 || outs[0].Rep != 3 || outs[1].Rep != 5 {
		t.Fatalf("stream = %+v", outs)
	}
	if last := outs[2]; !last.Done || last.Err != "" || string(last.Work) != `{"cycles":7}` {
		t.Fatalf("done marker = %+v", last)
	}
	outs = stream("boom")
	if last := outs[len(outs)-1]; !last.Done || !strings.Contains(last.Err, "synthetic") || last.Work != nil {
		t.Fatalf("failure marker = %+v", last)
	}

	bad, err := http.Post(hs.URL+"/fleet/run", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad job = %d, want 400", bad.StatusCode)
	}
}

// stallingWorker streams the first outcome of every shard, then goes
// silent with the connection open — the handler only returns when the
// coordinator abandons the stream (body close → request context cancel).
// Paired with re-heartbeats it models the stalled-but-heartbeating
// worker: alive by every liveness signal the fleet had before the
// watchdog, dead by the only one that matters, progress.
func stallingWorker(t *testing.T, name string) *httptest.Server {
	t.Helper()
	agent := &Agent{
		ID: name,
		Run: func(ctx context.Context, job ShardJob, emit func(Outcome)) (json.RawMessage, error) {
			emit(Outcome{Rep: job.Reps[0], Outcome: "Masked"})
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	hs := httptest.NewServer(agent.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestDispatcherWatchdogStallRequeue is the dedicated stalled-worker
// test: before the progress watchdog, this dispatch hung forever — the
// stream never broke, the worker never stopped heartbeating, and no
// liveness mechanism fired. Now the quiet window trips the watchdog, the
// stream is abandoned with ErrShardStall, the worker is removed, and the
// unclassified reps finish on the healthy worker.
func TestDispatcherWatchdogStallRequeue(t *testing.T) {
	wStall := stallingWorker(t, "a-stall")
	wGood := fakeWorker(t, "b-good", nil, nil)
	p := NewPool(time.Minute)
	p.Heartbeat("a-stall", wStall.URL) // sorts first → gets shard 0
	p.Heartbeat("b-good", wGood.URL)

	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	d.attempts = 1
	d.StallTimeout = 100 * time.Millisecond

	var stallRequeues atomic.Int64
	d.Emit = func(typ, msg string) {
		if typ == "requeue" && strings.Contains(msg, "stalled") {
			stallRequeues.Add(1)
			// The stalled worker keeps heartbeating: TTL liveness alone
			// must not be what saves this dispatch.
			p.Heartbeat("a-stall", wStall.URL)
		}
	}

	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background(), [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch still hung on a stalled worker: watchdog never fired")
	}
	if n := countSyncMap(&got); n != 8 {
		t.Fatalf("classified %d of 8 reps after the stall", n)
	}
	if stallRequeues.Load() == 0 {
		t.Fatal("no requeue event named the stall")
	}
}

// TestDispatcherOversizedOutcomeLine: a worker emitting one absurd line
// fails its shard with the named ErrOversizedOutcome (not a generic
// scanner break) and the reps requeue onto the healthy worker.
func TestDispatcherOversizedOutcomeLine(t *testing.T) {
	huge := &Agent{
		ID: "a-huge",
		Run: func(ctx context.Context, job ShardJob, emit func(Outcome)) (json.RawMessage, error) {
			emit(Outcome{Rep: job.Reps[0], Outcome: strings.Repeat("x", 4096)})
			return nil, nil
		},
	}
	hsHuge := httptest.NewServer(huge.Handler())
	defer hsHuge.Close()
	wGood := fakeWorker(t, "b-good", nil, nil)
	p := NewPool(time.Minute)
	p.Heartbeat("a-huge", hsHuge.URL)
	p.Heartbeat("b-good", wGood.URL)

	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	d.attempts = 1
	d.maxLine = 1024

	var oversized atomic.Int64
	d.Emit = func(typ, msg string) {
		if typ == "requeue" && strings.Contains(msg, "oversized outcome line") {
			oversized.Add(1)
		}
	}
	if err := d.Run(context.Background(), [][]int{{0, 1, 2}, {3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	if n := countSyncMap(&got); n != 6 {
		t.Fatalf("classified %d of 6 reps", n)
	}
	if oversized.Load() == 0 {
		t.Fatal("no requeue event named the oversized line")
	}
}

// TestDispatcherPoisonShardFailsLoudly: a shard that fails on a
// different worker in each of the default 3 rounds gets one local run;
// when that fails too, the campaign fails with ErrPoisonShard, naming the
// distinct workers.
func TestDispatcherPoisonShardFailsLoudly(t *testing.T) {
	var dieNow atomic.Int64 // every worker dies immediately, every time
	workers := map[string]*httptest.Server{
		"w1": fakeWorker(t, "w1", &dieNow, nil),
		"w2": fakeWorker(t, "w2", &dieNow, nil),
		"w3": fakeWorker(t, "w3", &dieNow, nil),
	}
	p := NewPool(time.Minute)
	for id, hs := range workers {
		p.Heartbeat(id, hs.URL)
	}

	var got sync.Map
	d := &Dispatcher{
		Pool:      p,
		Job:       func(reps []int) ShardJob { return ShardJob{Campaign: "c1", Reps: reps} },
		OnOutcome: func(o Outcome) { got.Store(o.Rep, o.Outcome) },
		Local: func(ctx context.Context, reps []int) error {
			return fmt.Errorf("injector rejects these reps")
		},
		attempts: 1,
		backoff:  time.Millisecond,
		Emit: func(typ, _ string) {
			if typ == "requeue" { // failed workers keep heartbeating back in
				for id, hs := range workers {
					p.Heartbeat(id, hs.URL)
				}
			}
		},
	}
	err := d.Run(context.Background(), [][]int{{0, 1, 2}})
	if !errors.Is(err, ErrPoisonShard) {
		t.Fatalf("err = %v, want ErrPoisonShard", err)
	}
	for _, frag := range []string{"3 distinct workers", "local fallback"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("poison diagnostic %q lacks %q", err, frag)
		}
	}
}

// TestDispatcherMismatchedDuplicateFatal: a worker contradicting its own
// classification of a rep fails the dispatch immediately with
// ErrMismatchedOutcome — a determinism violation is never requeued away.
func TestDispatcherMismatchedDuplicateFatal(t *testing.T) {
	byz := &Agent{
		ID: "byz",
		Run: func(ctx context.Context, job ShardJob, emit func(Outcome)) (json.RawMessage, error) {
			emit(Outcome{Rep: job.Reps[0], Outcome: "Masked"})
			emit(Outcome{Rep: job.Reps[0], Outcome: "SDC"})
			return nil, nil
		},
	}
	hs := httptest.NewServer(byz.Handler())
	defer hs.Close()
	p := NewPool(time.Minute)
	p.Heartbeat("byz", hs.URL)

	var got sync.Map
	var localReps [][]int
	var localMu sync.Mutex
	d := dispatcherFor(p, &got, &localReps, &localMu)
	d.attempts = 1

	err := d.Run(context.Background(), [][]int{{0, 1}})
	if !errors.Is(err, ErrMismatchedOutcome) {
		t.Fatalf("err = %v, want ErrMismatchedOutcome", err)
	}
	if len(localReps) != 0 {
		t.Fatal("determinism violation fell back to local instead of failing")
	}
}

// TestDispatcherBenignDuplicateTolerated: re-emitting the same line
// verbatim is dedup'd, not fatal.
func TestDispatcherBenignDuplicateTolerated(t *testing.T) {
	dup := &Agent{
		ID: "dup",
		Run: func(ctx context.Context, job ShardJob, emit func(Outcome)) (json.RawMessage, error) {
			for _, rep := range job.Reps {
				o := Outcome{Rep: rep, Outcome: "Masked"}
				emit(o)
				emit(o)
			}
			return nil, nil
		},
	}
	hs := httptest.NewServer(dup.Handler())
	defer hs.Close()
	p := NewPool(time.Minute)
	p.Heartbeat("dup", hs.URL)

	var outcomes atomic.Int64
	d := &Dispatcher{
		Pool:      p,
		Job:       func(reps []int) ShardJob { return ShardJob{Campaign: "c1", Reps: reps} },
		OnOutcome: func(o Outcome) { outcomes.Add(1) },
		Local:     func(ctx context.Context, reps []int) error { return nil },
		backoff:   time.Millisecond,
	}
	if err := d.Run(context.Background(), [][]int{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if outcomes.Load() != 3 {
		t.Fatalf("OnOutcome fired %d times for 3 reps with duplicates", outcomes.Load())
	}
}

// TestPoolCircuitBreaker: BreakerThreshold consecutive failures
// quarantine a worker even while it heartbeats; the cooldown half-opens
// it; one more failure re-trips instantly; a success clears everything.
func TestPoolCircuitBreaker(t *testing.T) {
	now := time.Now()
	p := NewPool(time.Second)
	p.now = func() time.Time { return now }
	p.Heartbeat("w1", "http://a")

	for i := 0; i < BreakerThreshold-1; i++ {
		p.NoteShardFailure("w1")
		if len(p.Alive()) != 1 {
			t.Fatalf("worker quarantined after only %d failures", i+1)
		}
	}
	p.NoteShardFailure("w1")
	if len(p.Alive()) != 0 {
		t.Fatal("worker still assignable after tripping the breaker")
	}
	all := p.All()
	if len(all) != 1 || !all[0].Quarantined || !all[0].Alive {
		t.Fatalf("All = %+v, want one alive quarantined worker", all)
	}

	// Quarantine survives Remove + re-heartbeat: a crash-looping worker
	// does not launder its record by rejoining.
	p.Remove("w1")
	p.Heartbeat("w1", "http://a")
	if len(p.Alive()) != 0 {
		t.Fatal("re-heartbeat after Remove cleared the quarantine")
	}

	// Cooldown expiry half-opens: assignable again, but the very next
	// failure re-trips without needing a fresh streak.
	now = now.Add(5 * time.Second) // past the 4×TTL cooldown
	p.Heartbeat("w1", "http://a")
	if len(p.Alive()) != 1 {
		t.Fatal("cooldown expiry did not half-open the breaker")
	}
	p.NoteShardFailure("w1")
	if len(p.Alive()) != 0 {
		t.Fatal("half-open failure did not re-trip the breaker")
	}

	// Success closes the breaker for good.
	now = now.Add(5 * time.Second)
	p.Heartbeat("w1", "http://a")
	p.NoteShardSuccess("w1")
	p.NoteShardFailure("w1")
	if len(p.Alive()) != 1 {
		t.Fatal("one failure after a success re-quarantined: streak was not cleared")
	}
}
