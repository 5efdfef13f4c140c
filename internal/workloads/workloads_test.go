package workloads

import (
	"reflect"
	"runtime"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/cpu"
)

// TestAllWorkloadsMatchReference is the end-to-end oracle: every workload,
// run on the default core configuration, must produce exactly the output
// stream its pure-Go reference model predicts, terminate cleanly, and do
// so within a sane cycle budget.
func TestAllWorkloadsMatchReference(t *testing.T) {
	for _, name := range Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := MustGet(name)
			c := w.NewCore(cpu.DefaultConfig())
			res := c.Run(20_000_000)
			if res.Halt != cpu.HaltOK {
				t.Fatalf("halt = %v after %d cycles", res.Halt, res.Cycles)
			}
			want := w.Reference()
			if !reflect.DeepEqual(res.Output, want) {
				t.Fatalf("output mismatch:\n got %v\nwant %v", res.Output, want)
			}
			if len(res.ExcLog) != 0 {
				t.Errorf("golden run logged %d exceptions; workloads must be exception-free", len(res.ExcLog))
			}
			t.Logf("%s: %d cycles, %d insts, IPC %.2f", name, res.Cycles,
				res.Stats.CommittedInsts, float64(res.Stats.CommittedUops)/float64(res.Cycles))
		})
	}
}

// TestWorkloadsDeterministic re-runs a sample workload and demands
// bit-identical results (cycle counts included).
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"qsort", "sha"} {
		w, err := Get(name)
		if err != nil {
			t.Skip("workload not yet registered")
		}
		a := w.NewCore(cpu.DefaultConfig()).Run(20_000_000)
		b := w.NewCore(cpu.DefaultConfig()).Run(20_000_000)
		if a.Cycles != b.Cycles || !reflect.DeepEqual(a.Output, b.Output) {
			t.Fatalf("%s nondeterministic", name)
		}
	}
}

func TestSuites(t *testing.T) {
	if len(Names("")) != len(Names("mibench"))+len(Names("spec")) {
		t.Error("every workload must belong to mibench or spec")
	}
	if got := len(Names("mibench")); got != 10 {
		t.Errorf("mibench workloads = %d, want 10", got)
	}
	if got := len(Names("spec")); got != 10 {
		t.Errorf("spec workloads = %d, want 10", got)
	}
	if len(MiBench()) != 10 || len(SPEC()) != 10 {
		t.Error("suite accessors wrong")
	}
	if _, err := Get("nonexistent"); err == nil {
		t.Error("Get of unknown workload must fail")
	}
}

// TestAssembleAllocBudget: generating and assembling all twenty sources —
// what a process's first Program call on each pays — allocates about 1.5
// MB. It was 169 MB while byteData and wordData built their blocks by
// string concatenation, which copies the block so far at every value.
func TestAssembleAllocBudget(t *testing.T) {
	const budget = 5_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range Names("") {
		w := MustGet(name)
		asm.MustAssemble(w.Name, w.source())
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("assembling all %d workloads allocated %.1f MB", len(Names("")), float64(got)/1e6)
	if got > budget {
		t.Errorf("assembling all workloads allocated %d bytes, budget %d", got, budget)
	}
}
