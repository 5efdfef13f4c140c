package campaign

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/workloads"
)

// onlineTestPrograms are 20 generated stress kernels, classes round-robin,
// plus every registered workload — except under the race detector, which
// has nothing to see in a single-goroutine run and makes the registered
// workloads' 220 golden runs take five minutes.
func onlineTestPrograms() []*isa.Program {
	var progs []*isa.Program
	classes := gen.Classes()
	for seed := 1; seed <= 20; seed++ {
		progs = append(progs, gen.Kernel(classes[seed%len(classes)], uint64(seed)))
	}
	if raceEnabled {
		return progs
	}
	for _, name := range workloads.Names("") {
		progs = append(progs, workloads.MustGet(name).Program())
	}
	return progs
}

// checkOnlineMatchesBuild compares the analysis the tracer derived during
// the run with the offline reference over its own event log: the same
// intervals in the same order, Find agreeing on 10,000 seeded sites, and
// every byte's intervals End-ascending in id order — the invariant the
// index relies on, and the one an event applied out of Seq order breaks.
func checkOnlineMatchesBuild(t *testing.T, label string, cfg cpu.Config, tr *lifetime.Tracer, s lifetime.StructureID, cycles uint64, truncated bool) {
	t.Helper()
	entries, entryBits := cfg.StructureGeometry(s)
	build := lifetime.Build
	if truncated {
		build = lifetime.BuildTruncated
	}
	want := build(tr.Log(s), s, entries, entryBits/8, cycles)
	got := tr.Analysis(s)
	if got.Structure != s || got.Entries != entries || got.EntryBytes != entryBits/8 || got.Cycles != cycles {
		t.Fatalf("%s: online analysis is %v %dx%d over %d cycles, want %v %dx%d over %d",
			label, got.Structure, got.Entries, got.EntryBytes, got.Cycles, s, entries, entryBits/8, cycles)
	}
	if !reflect.DeepEqual(got.Intervals, want.Intervals) {
		t.Fatalf("%s: online intervals (%d) differ from Build of the log (%d)", label, len(got.Intervals), len(want.Intervals))
	}
	lastEnd := make([]uint64, entries*entryBits/8)
	for id, iv := range got.Intervals {
		for m := iv.Mask; m != 0; m &= m - 1 {
			i := int(iv.Entry)*got.EntryBytes + bits.TrailingZeros64(m)
			if iv.End < lastEnd[i] {
				t.Fatalf("%s: interval %d of entry %d ends at %d, after one ending at %d", label, id, iv.Entry, iv.End, lastEnd[i])
			}
			lastEnd[i] = iv.End
		}
	}
	rng := rand.New(rand.NewSource(int64(cycles)))
	for i := 0; i < 10000; i++ {
		entry, b, cyc := int32(rng.Intn(entries)), rng.Intn(entryBits/8), uint64(rng.Int63n(int64(cycles)+2))
		gotID, gotOK := got.Find(entry, b, cyc)
		wantID, wantOK := want.Find(entry, b, cyc)
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("%s: Find(%d, %d, %d) = %d,%v online, %d,%v offline", label, entry, b, cyc, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestOnlineIntervalsMatchBuild is the differential oracle of the reorder
// window: two derivations of the same intervals whose disagreement is the
// bug report. Structures are traced one at a time and all three together —
// Seq is global, so a pending L1D read holds RF events back in the window
// and must still yield the same RF intervals — and, on the default
// configuration, in runs cut at three points, where reads in flight at the
// cut are dropped and open segments become EOF intervals.
func TestOnlineIntervalsMatchBuild(t *testing.T) {
	tracks := [][]lifetime.StructureID{{lifetime.StructRF}, {lifetime.StructSQ}, {lifetime.StructL1D}, allStructures}
	for _, prog := range onlineTestPrograms() {
		t.Run(prog.Name, func(t *testing.T) {
			t.Parallel()
			for _, tc := range timingConfigs {
				r := NewRunner(Target{Cfg: tc.cfg, Prog: prog})
				var cycles uint64
				for _, track := range tracks {
					g, err := r.RunGolden(track...)
					if err != nil {
						t.Fatal(err)
					}
					cycles = g.Result.Cycles
					for _, s := range track {
						label := fmt.Sprintf("%s/%v of %v", tc.name, s, track)
						checkOnlineMatchesBuild(t, label, tc.cfg, g.Tracer, s, cycles, false)
					}
				}
				if tc.name != "default" {
					continue
				}
				for _, cut := range []uint64{cycles / 4, cycles / 2, 3 * cycles / 4} {
					tg, err := r.RunGoldenTruncated(cut, allStructures...)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range allStructures {
						label := fmt.Sprintf("%s/%v cut at %d", tc.name, s, cut)
						checkOnlineMatchesBuild(t, label, tc.cfg, tg.Tracer, s, cut, true)
					}
				}
			}
		})
	}
}

// TestReorderWindowBounded: the window's memory is O(ROB), not O(program).
// A read leaves the window no later than its reader leaves the ROB, and
// every µop reserves a handful of Seqs, so the peak is a small multiple of
// ROBEntries on a 6K-cycle run and a 266K-cycle run alike. The counters are
// deterministic: what was emitted is what the logs hold.
func TestReorderWindowBounded(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for _, name := range workloads.Names("") {
		g, err := NewRunner(target(t, name)).RunGolden(allStructures...)
		if err != nil {
			t.Fatal(err)
		}
		tr := g.Tracer
		if tr.WindowPeak == 0 || tr.WindowPeak > 8*cfg.ROBEntries {
			t.Errorf("%s: window peaked at %d slots, want 1..%d (8 x ROB)", name, tr.WindowPeak, 8*cfg.ROBEntries)
		}
		var logged uint64
		for _, s := range allStructures {
			logged += uint64(len(tr.Log(s).Events))
		}
		if tr.Emitted != logged {
			t.Errorf("%s: %d events emitted, %d logged", name, tr.Emitted, logged)
		}
		if tr.Dropped == 0 && g.Result.Stats.SquashedUops > 0 {
			t.Errorf("%s: %d µops squashed and no read dropped", name, g.Result.Stats.SquashedUops)
		}
		t.Logf("%-14s cycles %7d window peak %4d emitted %8d dropped %7d", name, g.Result.Cycles, tr.WindowPeak, tr.Emitted, tr.Dropped)
	}
}
