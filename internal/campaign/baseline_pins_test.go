package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

const baselinePinsFile = "testdata/baseline_pins.json"

// baselinePinFaults is the length of every pinned comprehensive list.
const baselinePinFaults = 400

// shortWorkloads are the workloads the whole-suite checks cover under
// -short and -race.
var shortWorkloads = []string{"sha", "djpeg"}

// baselinePin is one comprehensive campaign's result: its distribution and
// the sha256 of its per-fault outcomes in list order.
type baselinePin struct {
	Dist     Dist   `json:"dist"`
	Outcomes string `json:"outcomes_sha256"`
}

// baselinePins runs the comprehensive Forked campaign of every structure
// for each named workload under both timing configurations, keyed
// "<workload>/<config>/<structure>".
func baselinePins(t *testing.T, names []string) map[string]baselinePin {
	t.Helper()
	pins := map[string]baselinePin{}
	for _, name := range names {
		for _, tc := range timingConfigs {
			r := NewRunner(Target{Cfg: tc.cfg, Prog: workloads.MustGet(name).Program()})
			g, err := r.RunGolden()
			if err != nil {
				t.Fatal(err)
			}
			c := r.NewCore()
			for _, s := range allStructures {
				faults := sampling.Generate(s, c.StructureEntries(s), c.StructureEntryBits(s), g.Result.Cycles, baselinePinFaults, 1)
				res := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
				b := make([]byte, len(res.Outcomes))
				for i, o := range res.Outcomes {
					b[i] = byte(o)
				}
				pins[name+"/"+tc.name+"/"+s.String()] = baselinePin{Dist: res.Dist, Outcomes: fmt.Sprintf("%x", sha256.Sum256(b))}
			}
		}
	}
	return pins
}

// TestBaselinePins pins what a comprehensive campaign classifies: every
// built-in workload under two configurations, one 400-fault list per
// structure, outcome by outcome. The file is regenerated with -update only
// when the modelled machine or the fault sampler changes on purpose; a
// change to how Run reaches its outcomes must leave it alone. -short and
// -race check shortWorkloads only.
func TestBaselinePins(t *testing.T) {
	names := workloads.Names("")
	if (testing.Short() || raceEnabled) && !*updatePins {
		names = shortWorkloads
	}
	got := baselinePins(t, names)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(baselinePinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]baselinePin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if n := len(workloads.Names("")) * len(timingConfigs) * len(allStructures); len(want) != n {
		t.Errorf("%d pins on file, want %d (every workload x config x structure)", len(want), n)
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", key, g, w)
		}
	}
}
