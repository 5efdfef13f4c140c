package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"merlin"
)

// The batch campaign daemon workloads interleave with their single
// campaigns: one golden run traced for three structures.
const (
	batchWorkload = "djpeg"
	batchFaults   = 2000
)

var batchStructures = []string{"RF", "SQ", "L1D"}

// isBatch says which fault lists of the workload's cycle are batch
// submissions: the last of every BatchEvery.
func (w *workload) isBatch(list int) bool {
	return w.BatchEvery > 0 && list%w.BatchEvery == w.BatchEvery-1
}

// request is the wire form of the workload's campaign for one fault list.
func (w *workload) request(o runOpts, list int) (path string, req merlin.CampaignRequest) {
	if w.isBatch(list) {
		return "/batches", merlin.CampaignRequest{
			Workload: batchWorkload, Structures: batchStructures,
			Faults: o.faults(batchFaults), Seed: subSeed(o.seed, list),
			Strategy: merlin.StrategyForked.String(),
		}
	}
	return "/campaigns", merlin.CampaignRequest{
		Workload: w.Workload, Structure: w.Structure.String(),
		Faults: o.faults(w.Faults), Seed: subSeed(o.seed, list),
		Strategy: w.Strategy.String(), Workers: 1,
	}
}

// reference runs fault list list's campaign through the library — the
// result a daemon or fleet report must equal. It deliberately shares
// nothing with the servers under test: no cache, its own session.
func (w *workload) reference(ctx context.Context, o runOpts, list int) ([]pin, error) {
	if w.isBatch(list) {
		var targets []merlin.Structure
		for _, name := range batchStructures {
			s, err := merlin.ParseStructure(name)
			if err != nil {
				return nil, err
			}
			targets = append(targets, s)
		}
		b, err := merlin.StartBatch(ctx, batchWorkload,
			merlin.WithStructures(targets...), merlin.WithFaults(o.faults(batchFaults)),
			merlin.WithSeed(subSeed(o.seed, list)), merlin.WithStrategy(merlin.StrategyForked))
		if err != nil {
			return nil, err
		}
		rep, err := b.Run(ctx)
		if err != nil {
			return nil, err
		}
		return pinsOf(rep.Reports), nil
	}
	s, err := merlin.Start(ctx, w.Workload, w.options(o, list)...)
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	return []pin{pinOf(rep)}, nil
}

// httpTimes is what a client saw of one submission.
type httpTimes struct {
	batch      bool
	submit     time.Duration // POST round trip
	firstEvent time.Duration // POST start to first NDJSON line
	reportGet  time.Duration // GET of the finished record
	events     int
	eventBytes int
	shards     int // "shard" events (fleet dispatch units)
	requeues   int // "requeue" events
}

// httpEnv is a campaign service on a loopback listener owned by the
// harness, optionally with two fleet workers joined, plus the client that
// drives it.
type httpEnv struct {
	w    *workload
	o    runOpts
	dir  string
	base string

	srv    *merlin.Server
	hs     *http.Server
	served chan error
	client *http.Client

	stopWorkers context.CancelFunc
	workerDone  chan error
	workers     int // ServeWorker goroutines not yet waited for

	artifactFetches atomic.Int64 // GET /artifacts/ requests the coordinator served
}

func newHTTPEnv(ctx context.Context, w *workload, o runOpts, dir string) (_ *httpEnv, err error) {
	e := &httpEnv{w: w, o: o, dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cache, err := merlin.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	reg, err := merlin.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, err
	}
	if e.srv, err = merlin.NewServer(merlin.ServeOptions{Cache: cache, Registry: reg}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	handler := e.srv.Handler()
	e.hs = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/artifacts/") {
			e.artifactFetches.Add(1)
		}
		handler.ServeHTTP(rw, r)
	})}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()

	if w.Workers > 0 {
		if err := e.startWorkers(ctx); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// startWorkers joins the workload's ServeWorker instances on free loopback
// ports (bind :0, close, reuse the port) and waits until the coordinator
// lists them all alive.
func (e *httpEnv) startWorkers(ctx context.Context) error {
	wctx, cancel := context.WithCancel(ctx)
	e.stopWorkers = cancel
	e.workerDone = make(chan error, e.w.Workers)
	for i := 0; i < e.w.Workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := ln.Addr().String()
		ln.Close()
		cache, err := merlin.OpenCache(filepath.Join(e.dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return err
		}
		e.workers++
		go func() {
			e.workerDone <- merlin.ServeWorker(wctx, addr, merlin.WorkerOptions{Coordinator: e.base, Cache: cache})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var list struct {
			Workers []struct {
				Alive bool `json:"alive"`
			} `json:"workers"`
		}
		if err := e.getJSON(ctx, "/fleet/workers", &list); err != nil {
			return err
		}
		alive := 0
		for _, wk := range list.Workers {
			if wk.Alive {
				alive++
			}
		}
		if alive == e.w.Workers {
			return nil
		}
		select {
		case err := <-e.workerDone:
			e.workers--
			return fmt.Errorf("fleet worker exited during set-up: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d fleet workers joined within 10s", alive, e.w.Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the workers, then the campaign service (which ends every
// event stream), then the listener, waits for each, and removes the
// scratch directory.
func (e *httpEnv) close() error {
	if e.stopWorkers != nil {
		e.stopWorkers()
		for ; e.workers > 0; e.workers-- {
			<-e.workerDone
		}
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.hs != nil {
		// Teardown outlives the run's context: this only bounds the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.hs.Shutdown(ctx)
		cancel()
		<-e.served
	}
	e.client.CloseIdleConnections()
	return os.RemoveAll(e.dir)
}

func (e *httpEnv) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (e *httpEnv) counters(ctx context.Context) (float64, float64) {
	var st struct {
		Cache     merlin.CacheStats         `json:"cache"`
		Snapshots merlin.SnapshotCacheStats `json:"snapshots"`
	}
	if err := e.getJSON(ctx, "/statsz", &st); err != nil {
		return 0, 0
	}
	return float64(st.Cache.Hits), float64(st.Snapshots.Hits)
}

// op submits campaign i, streams its events to the terminal one, fetches
// the finished record and decodes its report.
func (e *httpEnv) op(ctx context.Context, i int, tr *tracer) opResult {
	res := opResult{list: i % e.w.Lists, http: &httpTimes{}}
	ht := res.http
	ht.batch = e.w.isBatch(res.list)
	path, creq := e.w.request(e.o, res.list)
	body, err := json.Marshal(creq)
	if err != nil {
		res.err = err
		return res
	}

	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	resp, err := e.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	var submitted struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	tSubmit := time.Now()
	ht.submit = tSubmit.Sub(t0)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		res.shed = true
		res.err = fmt.Errorf("POST %s: refused with 429", path)
		return res
	case resp.StatusCode != http.StatusAccepted || err != nil:
		res.err = fmt.Errorf("POST %s: status %d: %s %v", path, resp.StatusCode, submitted.Error, err)
		return res
	}

	// Stream the NDJSON event log; it ends with the terminal event.
	phaseAt := map[string]time.Time{}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, e.base+path+"/"+submitted.ID+"/events", nil)
	if err != nil {
		res.err = err
		return res
	}
	resp, err = e.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	lines := bufio.NewReader(resp.Body)
	last := ""
	for {
		line, err := lines.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if ht.events == 0 {
				ht.firstEvent = now.Sub(t0)
			}
			ht.events++
			ht.eventBytes += len(line)
			var ev struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(line, &ev) == nil {
				last = ev.Type
				switch ev.Type {
				case "shard":
					ht.shards++
				case "requeue":
					ht.requeues++
				case "started", "preprocess", "reduce":
					if _, seen := phaseAt[ev.Type]; !seen {
						phaseAt[ev.Type] = now
					}
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				res.err = fmt.Errorf("event stream: %w", err)
			}
			break
		}
	}
	resp.Body.Close()
	tStream := time.Now()
	if res.err != nil {
		return res
	}
	if last != "done" {
		res.err = fmt.Errorf("campaign %s ended with event %q, want done", submitted.ID, last)
		return res
	}

	var record struct {
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Report json.RawMessage `json:"report"`
	}
	if err := e.getJSON(ctx, path+"/"+submitted.ID, &record); err != nil {
		res.err = err
		return res
	}
	tReport := time.Now()
	ht.reportGet = tReport.Sub(tStream)
	if record.Status != "done" {
		res.err = fmt.Errorf("campaign %s is %q: %s", submitted.ID, record.Status, record.Error)
		return res
	}
	if ht.batch {
		var rep merlin.BatchReport
		if err := json.Unmarshal(record.Report, &rep); err != nil {
			res.err = fmt.Errorf("batch report: %w", err)
			return res
		}
		res.pins = pinsOf(rep.Reports)
		for _, r := range rep.Reports {
			res.faults += r.InitialFaults
		}
	} else {
		res.report = new(merlin.Report)
		if err := json.Unmarshal(record.Report, res.report); err != nil {
			res.err = fmt.Errorf("campaign report: %w", err)
			return res
		}
		res.pins = []pin{pinOf(res.report)}
		res.faults = res.report.InitialFaults
	}
	end := time.Now()
	res.wall = end.Sub(t0)

	if tr != nil {
		root := tr.add("campaign", -1, i, t0, end)
		ids := tr.phases(root, i, []string{"submit", "stream", "report_get", "verify"},
			[]time.Time{t0, tSubmit, tStream, tReport, end})
		if !ht.batch {
			// The pipeline phases as the client sees them: the arrival
			// of each phase-done event closes that phase.
			stream := ids[1]
			tr.add("first_event", stream, i, tSubmit, t0.Add(ht.firstEvent))
			if a, b, c := phaseAt["started"], phaseAt["preprocess"], phaseAt["reduce"]; !a.IsZero() && !b.IsZero() && !c.IsZero() {
				tr.phases(stream, i, []string{"preprocess", "reduce", "inject"}, []time.Time{a, b, c, tStream})
			}
		}
	}
	return res
}
