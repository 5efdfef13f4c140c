package campaign

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sync"
	"testing"

	"merlin/internal/lifetime"
	"merlin/internal/workloads"
)

const intervalPinsFile = "testdata/interval_pins.json"

// intervalPin is one structure's vulnerable intervals from one golden run:
// how many, their total byte-cycles, and an FNV-1a digest over every
// Interval field in slice order. Order is part of the contract — interval
// ids are positions, and reduction groups and the artifact index by them.
type intervalPin struct {
	Intervals  int    `json:"intervals"`
	ByteCycles uint64 `json:"byte_cycles"`
	Digest     string `json:"digest"`
}

var allStructures = []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D}

// truncatedPinWorkloads are cut at half their full run, as Table 4 cuts them.
var truncatedPinWorkloads = []string{"gcc", "bzip2"}

func pinIntervals(a *lifetime.Analysis) intervalPin {
	h := fnv.New64a()
	var b [41]byte
	for _, iv := range a.Intervals {
		binary.LittleEndian.PutUint32(b[0:], uint32(iv.Entry))
		binary.LittleEndian.PutUint64(b[4:], iv.Mask)
		binary.LittleEndian.PutUint64(b[12:], iv.Start)
		binary.LittleEndian.PutUint64(b[20:], iv.End)
		binary.LittleEndian.PutUint64(b[28:], iv.EndSeq)
		binary.LittleEndian.PutUint32(b[36:], uint32(iv.RIP))
		b[40] = iv.UPC
		h.Write(b[:])
	}
	return intervalPin{
		Intervals:  len(a.Intervals),
		ByteCycles: a.VulnerableByteCycles(),
		Digest:     fmt.Sprintf("%016x", h.Sum64()),
	}
}

// intervalPins computes every pin: "<workload>/<config>/<structure>" for the
// analyses of one three-structure golden run per (workload, config), and
// "truncated/<workload>/RF" for the run cut at 50%, EOF intervals included.
func intervalPins(t *testing.T) map[string]intervalPin {
	t.Helper()
	pins := map[string]intervalPin{}
	for _, name := range workloads.Names("") {
		for _, tc := range timingConfigs {
			r := NewRunner(Target{Cfg: tc.cfg, Prog: workloads.MustGet(name).Program()})
			g, err := r.RunGolden(allStructures...)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range allStructures {
				pins[name+"/"+tc.name+"/"+s.String()] = pinIntervals(g.Tracer.Analysis(s))
			}
		}
	}
	for _, name := range truncatedPinWorkloads {
		r := NewRunner(target(t, name))
		full, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		tg, err := r.RunGoldenTruncated(full.Result.Cycles/2, lifetime.StructRF)
		if err != nil {
			t.Fatal(err)
		}
		pins["truncated/"+name+"/RF"] = pinIntervals(tg.Tracer.Analysis(lifetime.StructRF))
	}
	return pins
}

// TestIntervalPins pins what Preprocess hands to Reduce: the vulnerable
// intervals of every built-in workload under two configurations, in the
// order they are numbered. The file was generated before the intervals
// moved from a post-run pass over the sorted event log to the tracer's
// reorder window, and is regenerated with -update only when the analysis
// (or the modelled machine) changes on purpose.
func TestIntervalPins(t *testing.T) {
	got := intervalPins(t)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(intervalPinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(intervalPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]intervalPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d pins computed, %d pinned", len(got), len(want))
	}
	for key, w := range want {
		if g := got[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", key, g, w)
		}
	}
}

// TestConcurrentGoldenAnalyses: golden runs on concurrent goroutines take
// the chunks their intervals go into from one process-wide spare list and
// give them back. Twice over, three workloads each tracing RF, SQ and L1D
// run at once, and every analysis must pin as its workload's solo run
// does. CI runs it under the race detector.
func TestConcurrentGoldenAnalyses(t *testing.T) {
	names := []string{"sha", "djpeg", "gcc"}
	targets := map[string]Target{}
	for _, name := range names {
		targets[name] = target(t, name)
	}
	pins := func(name string) map[lifetime.StructureID]intervalPin {
		g, err := NewRunner(targets[name]).RunGolden(allStructures...)
		if err != nil {
			t.Error(err)
			return nil
		}
		out := map[lifetime.StructureID]intervalPin{}
		for _, s := range allStructures {
			out[s] = pinIntervals(g.Tracer.Analysis(s))
		}
		return out
	}
	solo := map[string]map[lifetime.StructureID]intervalPin{}
	for _, name := range names {
		solo[name] = pins(name)
	}
	for round := range 2 {
		got := make([]map[lifetime.StructureID]intervalPin, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = pins(name)
			}()
		}
		wg.Wait()
		for i, name := range names {
			if !reflect.DeepEqual(got[i], solo[name]) {
				t.Errorf("round %d, %s:\n got  %+v\n solo %+v", round, name, got[i], solo[name])
			}
		}
	}
}
