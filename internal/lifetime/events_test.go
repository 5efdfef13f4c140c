package lifetime

import (
	"reflect"
	"testing"
)

// TestGoldenTracerReplaysOnce: a golden tracer records no branch of its
// own run, and its log and branch trace come from one replay however many
// times, and in whichever order, they are asked for.
func TestGoldenTracerReplaysOnce(t *testing.T) {
	replays := 0
	tr := NewGoldenTracer(func(rec *Tracer) {
		replays++
		rec.Log(StructRF).Append(Event{Seq: 1, Cycle: 2, Entry: 3, Mask: 0xff, Kind: EvWrite})
		rec.RecordBranch(4, 5, 6, true)
	}, StructRF)
	tr.RecordBranch(1, 2, 3, false)
	if tr.Branches != nil {
		t.Fatalf("a golden tracer recorded %v", tr.Branches)
	}
	if got := tr.Log(StructRF); got == nil || len(got.Events) != 1 {
		t.Fatalf("Log = %+v, want the replayed event", got)
	}
	want := []BranchRec{{CommitSeq: 4, RIP: 5, Target: 6, Taken: true}}
	if got := tr.BranchTrace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BranchTrace = %v, want %v", got, want)
	}
	tr.Log(StructRF)
	tr.BranchTrace()
	if replays != 1 {
		t.Fatalf("Log then BranchTrace replayed %d times, want 1", replays)
	}
	if tr.Log(StructSQ) != nil {
		t.Fatal("an untracked structure has a log")
	}
}
