package campaign

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
	"merlin/internal/workloads"
)

var updatePins = flag.Bool("update", false, "regenerate testdata/timing_pins.json from the current simulator")

const timingPinsFile = "testdata/timing_pins.json"

// timingPoint is the machine at one quarter of a fault-free run: the cycle
// it was sampled at, every pipeline counter, the committed output length
// and the StateHash of a flushed throw-away clone.
type timingPoint struct {
	Cycles    uint64    `json:"cycles"`
	Stats     cpu.Stats `json:"stats"`
	OutputLen int       `json:"output_len"`
	StateHash string    `json:"state_hash"`
}

// tracePin digests a traced golden run: one FNV-1a digest per structure
// event log (every Event field, in log order) and one of the branch trace.
type tracePin struct {
	Events   map[string]string `json:"events"`
	Branches string            `json:"branches"`
}

type timingPins struct {
	Untraced map[string][]timingPoint `json:"untraced"` // "<workload>/<config>" -> 25/50/75/100%
	Traced   map[string]tracePin      `json:"traced"`   // workload -> RF+SQ+L1D golden run digests
}

var timingConfigs = []struct {
	name string
	cfg  cpu.Config
}{
	{"default", cpu.DefaultConfig()},
	{"small", cpu.DefaultConfig().WithRF(64).WithSQ(16).WithL1D(16 << 10)}, // smallest Table 1 point
}

var tracedPinWorkloads = []string{"sha", "djpeg", "gcc"}

func samplePoint(c *cpu.Core) timingPoint {
	res := c.Result()
	flushed := c.Clone()
	flushed.FlushDataCaches()
	return timingPoint{
		Cycles:    res.Cycles,
		Stats:     res.Stats,
		OutputLen: len(res.Output),
		StateHash: fmt.Sprintf("%016x", flushed.StateHash()),
	}
}

// timingPoints samples a fault-free run of w under cfg at the given cycles
// (the last one is "run to the end", whatever cycle that turns out to be).
func timingPoints(t *testing.T, w *workloads.Workload, cfg cpu.Config, at []uint64) []timingPoint {
	t.Helper()
	c := w.NewCore(cfg)
	var pts []timingPoint
	for _, cyc := range at[:len(at)-1] {
		for c.Cycle() < cyc && c.Halted() == cpu.Running {
			c.Step()
		}
		pts = append(pts, samplePoint(c))
	}
	if res := c.Run(DefaultGoldenBudget); res.Halt != cpu.HaltOK {
		t.Fatalf("%s: fault-free run ended with %v", w.Name, res.Halt)
	}
	return append(pts, samplePoint(c))
}

func digestEvents(events []lifetime.Event) string {
	h := fnv.New64a()
	var b [42]byte
	for _, ev := range events {
		binary.LittleEndian.PutUint64(b[0:], ev.Seq)
		binary.LittleEndian.PutUint64(b[8:], ev.Cycle)
		binary.LittleEndian.PutUint64(b[16:], ev.CommitSeq)
		binary.LittleEndian.PutUint32(b[24:], uint32(ev.Entry))
		binary.LittleEndian.PutUint64(b[28:], ev.Mask)
		binary.LittleEndian.PutUint32(b[36:], uint32(ev.RIP))
		b[40], b[41] = byte(ev.Kind), ev.UPC
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(events))
}

func digestBranches(recs []lifetime.BranchRec) string {
	h := fnv.New64a()
	var b [17]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], r.CommitSeq)
		binary.LittleEndian.PutUint32(b[8:], uint32(r.RIP))
		binary.LittleEndian.PutUint32(b[12:], uint32(r.Target))
		b[16] = 0
		if r.Taken {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(recs))
}

func tracedPin(t *testing.T, name string) tracePin {
	t.Helper()
	g, err := NewRunner(target(t, name)).RunGolden(allStructures...)
	if err != nil {
		t.Fatal(err)
	}
	pin := tracePin{Events: map[string]string{}, Branches: digestBranches(g.Tracer.BranchTrace())}
	for _, s := range allStructures {
		pin.Events[s.String()] = digestEvents(g.Tracer.Log(s).Events)
	}
	return pin
}

// TestTimingPins pins the pipeline's *timing*, which conformance and
// FuzzLockstep (architecture against the interpreter) do not see: every
// built-in workload under two configurations must reach the same cycle
// with the same counters, output and state digest at each quarter of its
// run, and the tracer's event stream on three traced golden runs must be
// byte-identical. The file is regenerated with -update only when the
// modelled machine changes on purpose.
func TestTimingPins(t *testing.T) {
	if *updatePins {
		pins := timingPins{Untraced: map[string][]timingPoint{}, Traced: map[string]tracePin{}}
		for _, name := range workloads.Names("") {
			w := workloads.MustGet(name)
			for _, tc := range timingConfigs {
				res := w.NewCore(tc.cfg).Run(DefaultGoldenBudget)
				n := res.Cycles
				pins.Untraced[name+"/"+tc.name] = timingPoints(t, w, tc.cfg, []uint64{n / 4, n / 2, 3 * n / 4, n})
			}
		}
		for _, name := range tracedPinWorkloads {
			pins.Traced[name] = tracedPin(t, name)
		}
		data, err := json.MarshalIndent(pins, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(timingPinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(timingPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var pins timingPins
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	if want := len(workloads.Names("")) * len(timingConfigs); len(pins.Untraced) != want {
		t.Fatalf("%d untraced pins, want %d (every workload x every config)", len(pins.Untraced), want)
	}
	for _, name := range workloads.Names("") {
		w := workloads.MustGet(name)
		for _, tc := range timingConfigs {
			key := name + "/" + tc.name
			want := pins.Untraced[key]
			if len(want) != 4 {
				t.Fatalf("%s: %d pinned points, want 4", key, len(want))
			}
			at := make([]uint64, len(want))
			for i, p := range want {
				at[i] = p.Cycles
			}
			for i, got := range timingPoints(t, w, tc.cfg, at) {
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s at %d%%:\n got  %+v\n want %+v", key, 25*(i+1), got, want[i])
				}
			}
		}
	}
	for _, name := range tracedPinWorkloads {
		if got, want := tracedPin(t, name), pins.Traced[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("traced %s:\n got  %+v\n want %+v", name, got, want)
		}
	}
}
