package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"merlin/internal/fleet"
	"merlin/internal/store"
)

// TestRandDeterminism: equal seeds yield equal draw sequences, and
// Derive gives scenario i the same child seed on every run — the whole
// point of a *seeded* chaos engine.
func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d diverged for equal seeds", i)
		}
	}
	if NewRand(42).Uint64() == NewRand(43).Uint64() {
		t.Error("adjacent seeds collide on the first draw")
	}
	if Derive(7, 3) != Derive(7, 3) {
		t.Error("Derive is not a function of (seed, i)")
	}
	if Derive(7, 3) == Derive(7, 4) {
		t.Error("Derive gives adjacent scenarios the same stream")
	}
}

func TestRandChanceBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		if r.Chance(0) {
			t.Fatal("Chance(0) fired")
		}
		if !r.Chance(1) {
			t.Fatal("Chance(1) did not fire")
		}
	}
}

func chaosBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 8192)))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestTransportDrop(t *testing.T) {
	srv := chaosBackend(t)
	client := &http.Client{Transport: &Transport{R: NewRand(1), Rules: []Faults{{Drop: 1}}}}
	if _, err := client.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "injected connection drop") {
		t.Fatalf("dropped request err = %v, want injected connection drop", err)
	}
}

func TestTransportHTTP500(t *testing.T) {
	srv := chaosBackend(t)
	client := &http.Client{Transport: &Transport{R: NewRand(1), Rules: []Faults{{HTTP500: 1}}}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestTransportTruncate(t *testing.T) {
	srv := chaosBackend(t)
	client := &http.Client{Transport: &Transport{R: NewRand(1), Rules: []Faults{{Truncate: 1}}}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("truncation must read as a clean EOF, got %v", err)
	}
	if len(body) == 0 || len(body) >= 8192 {
		t.Fatalf("truncated body = %d bytes, want a strict non-empty prefix of 8192", len(body))
	}
}

// TestTransportStall: the stalled body blocks without closing, and
// closing it from the reader side (the watchdog's move) unblocks it.
func TestTransportStall(t *testing.T) {
	srv := chaosBackend(t)
	client := &http.Client{Transport: &Transport{
		R:     NewRand(1),
		Rules: []Faults{{Stall: 1, StallFor: 10 * time.Second}},
	}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(resp.Body)
		read <- err
	}()
	select {
	case err := <-read:
		t.Fatalf("stalled body returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	resp.Body.Close()
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("closed stalled body read as a clean EOF")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled body still blocked after Close")
	}
}

// TestTransportPathScope: rules only perturb their PathPrefix; other
// routes pass through untouched.
func TestTransportPathScope(t *testing.T) {
	srv := chaosBackend(t)
	client := &http.Client{Transport: &Transport{
		R:     NewRand(1),
		Rules: []Faults{{PathPrefix: "/fleet/run", Drop: 1}},
	}}
	resp, err := client.Get(srv.URL + "/fleet/workers")
	if err != nil {
		t.Fatalf("out-of-scope request perturbed: %v", err)
	}
	resp.Body.Close()
	if _, err := client.Get(srv.URL + "/fleet/run"); err == nil {
		t.Fatal("in-scope request not dropped")
	}
}

func TestFSFaults(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("payload", 100))
	path := filepath.Join(dir, "rec")

	torn := &FS{R: NewRand(1), Faults: FSFaults{TornWrite: 1}}
	if err := torn.WriteFileAtomic(path, payload); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("torn write landed %d bytes, want a strict non-empty prefix of %d", len(got), len(payload))
	}

	rename := &FS{R: NewRand(1), Faults: FSFaults{RenameFail: 1}}
	if err := rename.WriteFileAtomic(filepath.Join(dir, "r2"), payload); err == nil {
		t.Fatal("rename failure reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, "r2")); !os.IsNotExist(err) {
		t.Fatal("rename failure still produced the file")
	}

	enospc := &FS{R: NewRand(1), Faults: FSFaults{ENOSPC: 1}}
	if err := enospc.WriteFileAtomic(filepath.Join(dir, "r3"), payload); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}

	flip := &FS{R: NewRand(1), Faults: FSFaults{BitFlip: 1}}
	p4 := filepath.Join(dir, "r4")
	if err := flip.WriteFileAtomic(p4, payload); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(p4)
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
		}
	}
	if len(got) != len(payload) || diff != 1 {
		t.Fatalf("bit flip changed %d bytes of %d, want exactly 1 of %d", diff, len(got), len(payload))
	}

	// A chaos registry quarantines its own damage: the torn record from
	// above reads as absent and moves aside.
	reg, err := store.OpenRegistryOn(torn, dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = reg
}

// TestBehaviorDuplicateAndMismatch: the benign duplicate repeats the
// line verbatim; the Byzantine one contradicts it.
func TestBehaviorDuplicateAndMismatch(t *testing.T) {
	run := func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) (json.RawMessage, error) {
		for _, rep := range job.Reps {
			emit(fleet.Outcome{Rep: rep, Outcome: "Masked"})
		}
		return nil, nil
	}
	b := &Behavior{R: NewRand(1), Duplicate: 1, MismatchDuplicate: 1}
	var got []fleet.Outcome
	_, err := b.Wrap(run)(context.Background(), fleet.ShardJob{Reps: []int{0, 1, 2}},
		func(o fleet.Outcome) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	dup, forged := 0, 0
	seen := map[int]string{}
	for _, o := range got {
		if prev, ok := seen[o.Rep]; ok {
			if prev == o.Outcome {
				dup++
			} else {
				forged++
			}
			continue
		}
		seen[o.Rep] = o.Outcome
	}
	if dup == 0 {
		t.Error("Duplicate=1 emitted no verbatim duplicates")
	}
	if forged == 0 {
		t.Error("MismatchDuplicate=1 emitted no contradicting duplicate")
	}
}

// TestBehaviorCrashAborts: the crash fate panics http.ErrAbortHandler on
// the caller's goroutine (the HTTP handler), after run has unwound — the
// connection-reset crash, not a process crash from an injection worker.
func TestBehaviorCrashAborts(t *testing.T) {
	run := func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) (json.RawMessage, error) {
		for _, rep := range job.Reps {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			emit(fleet.Outcome{Rep: rep, Outcome: "Masked"})
		}
		return nil, nil
	}
	b := &Behavior{R: NewRand(1), Crash: 1}
	var emitted int
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recover = %v, want http.ErrAbortHandler", r)
		}
		if emitted >= 8 {
			t.Errorf("crash emitted all %d outcomes first", emitted)
		}
	}()
	b.Wrap(run)(context.Background(), fleet.ShardJob{Reps: []int{0, 1, 2, 3, 4, 5, 6, 7}},
		func(o fleet.Outcome) { emitted++ })
	t.Fatal("crash behavior returned instead of aborting")
}

// TestBehaviorStallHoldsUntilClosed: the stalled shard emits nothing
// more, holds the stream open, and aborts only once the request context
// ends — the coordinator-side watchdog's body-close.
func TestBehaviorStallHoldsUntilClosed(t *testing.T) {
	run := func(ctx context.Context, job fleet.ShardJob, emit func(fleet.Outcome)) (json.RawMessage, error) {
		for _, rep := range job.Reps {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			emit(fleet.Outcome{Rep: rep, Outcome: "Masked"})
		}
		return nil, nil
	}
	b := &Behavior{R: NewRand(1), Stall: 1, StallFor: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		b.Wrap(run)(ctx, fleet.ShardJob{Reps: []int{0, 1, 2, 3}}, func(o fleet.Outcome) {})
		done <- nil
	}()
	select {
	case v := <-done:
		t.Fatalf("stalled shard finished early: %v", v)
	case <-time.After(100 * time.Millisecond):
	}
	cancel() // the watchdog closing the response body cancels r.Context()
	select {
	case v := <-done:
		if v != http.ErrAbortHandler {
			t.Fatalf("stalled shard ended with %v, want http.ErrAbortHandler", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled shard still blocked after context cancel")
	}
}
