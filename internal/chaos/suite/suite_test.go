package suite

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"merlin"

	"merlin/internal/chaos"
	"merlin/internal/fleet"
)

// TestRunChaosSmoke runs a short chaos certification — one stalling and
// one crashing schedule — end to end through the entry point `merlin
// chaos` calls.
func TestRunChaosSmoke(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Seed:      1,
		Scenarios: 2, // worker-stall, mid-stream-crash
		Workers:   2,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 2 || res.CleanWall <= 0 || res.ChaosMean <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Requeues == 0 {
		t.Fatal("stall and crash schedules produced no requeues: the chaos never landed")
	}
}

// TestChaosLethalMismatchFailsLoudly: a Byzantine worker contradicting
// its own classifications is a lethal schedule — the campaign must fail
// with the determinism violation named in its error, never silently pick
// one of the answers.
func TestChaosLethalMismatchFailsLoudly(t *testing.T) {
	ctx := context.Background()
	cache, err := merlin.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := merlin.NewServer(merlin.ServeOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(srv.Handler())
	defer func() { coord.Close(); srv.Close() }()

	byz := &chaos.Behavior{R: chaos.NewRand(1), MismatchDuplicate: 1}
	agent := &fleet.Agent{ID: "byz", Run: byz.Wrap(merlin.WorkerShardRun(nil))}
	hs := httptest.NewServer(agent.Handler())
	defer hs.Close()
	resp, err := http.Post(coord.URL+"/fleet/join", "application/json",
		strings.NewReader(`{"id":"byz","addr":"`+hs.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}

	id, err := chaosSubmit(ctx, coord.URL)
	if err != nil {
		t.Fatal(err)
	}
	// chaosAwait treats a failed campaign as an error carrying the
	// campaign's own message — here that failure is the expected outcome.
	switch _, err := chaosAwait(ctx, coord.URL, id); {
	case err == nil:
		t.Fatal("campaign with a Byzantine worker reported success")
	case !strings.Contains(err.Error(), "determinism violation"):
		t.Fatalf("lethal schedule failed without naming the violation: %v", err)
	}
}
