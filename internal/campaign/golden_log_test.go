package campaign

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"merlin/internal/lifetime"
)

// TestGoldenLogOnDemand: a golden tracer records no event log, yet
// Tracer.Log serves the log a recording tracer (lifetime.NewTracer) keeps
// of the same run, event for event — from a fresh RunGolden and from a
// CachedGolden of its result alike, to two goroutines asking at once. On
// the fresh run, Build of the replayed log is the analysis derived online.
// The replay is no golden run: GoldenRuns still reads 1 and 0.
func TestGoldenLogOnDemand(t *testing.T) {
	for _, name := range []string{"sha", "djpeg"} {
		for _, track := range [][]lifetime.StructureID{{lifetime.StructRF}, allStructures} {
			tgt := target(t, name)
			ref := lifetime.NewTracer(track...)
			c := tgt.NewCore()
			c.AttachTracer(ref)
			c.Run(DefaultGoldenBudget)
			ref.Finish(false)

			miss := NewRunner(tgt)
			g, err := miss.RunGolden(track...)
			if err != nil {
				t.Fatal(err)
			}
			hit := NewRunner(tgt)
			cached := hit.CachedGolden(g.Result, g.Tracer.Branches, track...)
			for _, tc := range []struct {
				label  string
				golden *Golden
				runner *Runner
				runs   int64
			}{{"miss", g, miss, 1}, {"hit", cached, hit, 0}} {
				label := name + "/" + tc.label
				tr := tc.golden.Tracer
				var logs [2][lifetime.NumStructures]*lifetime.Log
				var wg sync.WaitGroup
				for i := range logs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for s := range lifetime.NumStructures {
							logs[i][s] = tr.Log(s)
						}
					}()
				}
				wg.Wait()
				for s := range lifetime.NumStructures {
					want := ref.Log(s)
					if logs[0][s] != logs[1][s] {
						t.Errorf("%s: the two goroutines were served different %v logs", label, s)
					}
					if !reflect.DeepEqual(logs[0][s], want) {
						t.Fatalf("%s/%v of %v: replayed log differs from the recording tracer's", label, s, track)
					}
					if want == nil || tc.label == "hit" {
						continue
					}
					entries, entryBits := tgt.Cfg.StructureGeometry(s)
					built := lifetime.Build(logs[0][s], s, entries, entryBits/8, g.Result.Cycles)
					if !reflect.DeepEqual(built, tr.Analysis(s)) {
						t.Errorf("%s/%v of %v: Build of the replayed log differs from the online analysis", label, s, track)
					}
				}
				if got := tc.runner.GoldenRuns(); got != tc.runs {
					t.Errorf("%s: GoldenRuns = %d after the Log calls, want %d", label, got, tc.runs)
				}
			}
		}
	}
}

// TestGoldenPinsNoRunner: a retained Golden, whose tracer can still replay
// the run, does not keep the Runner that made it — and with it the clone
// pool and frozen reset state — alive.
func TestGoldenPinsNoRunner(t *testing.T) {
	freed := make(chan struct{})
	g := func() *Golden {
		r := NewRunner(target(t, "sha"))
		g, err := r.RunGolden(lifetime.StructRF)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(r, func(*Runner) { close(freed) })
		return g
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if g.Tracer.Log(lifetime.StructRF) == nil {
				t.Fatal("the retained Golden lost its log")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the Runner is still reachable 5 s after it was dropped; the retained Golden pins it")
		}
	}
}
