package guestflow

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"testing"

	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

var updatePins = flag.Bool("update", false, "regenerate testdata/liveness_pins.json from the current analysis")

const livenessPinsFile = "testdata/liveness_pins.json"

// livenessPin is everything the analysis' consumers read, for one program:
// a digest over (Reachable, Succs, MayLiveIn, MayLiveOut) of every
// instruction, the sorted CrossCheck violation list, and PruneRF's verdict
// over 1,000 seeded RF sites.
type livenessPin struct {
	Insts      int        `json:"insts"`
	Flow       string     `json:"flow"`
	Violations []string   `json:"violations"`
	Premasked  string     `json:"premasked"`
	Prune      PruneStats `json:"prune"`
}

func flowDigest(g *Analysis) string {
	h := fnv.New64a()
	for i := range g.Prog.Text {
		reach := 0
		if g.Reachable(i) {
			reach = 1
		}
		fmt.Fprintf(h, "%d:%d:%v:%04x:%04x;", i, reach, g.Succs(i), uint16(g.MayLiveIn(i)), uint16(g.MayLiveOut(i)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func livenessPinOf(t *testing.T, p *isa.Program, cfg cpu.Config) livenessPin {
	t.Helper()
	g, dyn, log := goldenRF(t, p, cfg)
	pin := livenessPin{Insts: len(p.Text), Flow: flowDigest(g), Violations: []string{}}
	for _, v := range CrossCheck(g, dyn, log) {
		pin.Violations = append(pin.Violations, v.Error())
	}
	sort.Strings(pin.Violations)
	sites := sampling.Generate(lifetime.StructRF, cfg.PhysRegs, 64, dyn.Cycles, 1000, 1)
	premasked, ps := PruneRF(g, log, sites)
	h := fnv.New64a()
	fmt.Fprint(h, premasked)
	pin.Premasked = fmt.Sprintf("%016x/%d", h.Sum64(), ps.Pruned())
	pin.Prune = ps
	return pin
}

// livenessPins computes the pins of all 20 registered workloads (default
// machine) and 20 generated kernels (classes round-robin, seeds 1-20, the
// smallest Table 1 machine).
func livenessPins(t *testing.T) map[string]livenessPin {
	t.Helper()
	pins := map[string]livenessPin{}
	for _, name := range workloads.Names("") {
		pins[name] = livenessPinOf(t, workloads.MustGet(name).Program(), cpu.DefaultConfig())
	}
	small := cpu.DefaultConfig().WithRF(64).WithSQ(16).WithL1D(16 << 10)
	classes := gen.Classes()
	for k := 0; k < 20; k++ {
		p := gen.Kernel(classes[k%len(classes)], uint64(k+1))
		pins["gen/"+p.Name] = livenessPinOf(t, p, small)
	}
	return pins
}

// TestLivenessPins pins what CrossCheck, PruneRF and `merlin analyze` read
// from an Analysis, so an edit to the engine that is not meant to change
// its answers passes without -update.
func TestLivenessPins(t *testing.T) {
	got := livenessPins(t)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(livenessPinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(livenessPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]livenessPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) || len(got) != 40 {
		t.Fatalf("%d pinned programs, computed %d, want 40 of each", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
