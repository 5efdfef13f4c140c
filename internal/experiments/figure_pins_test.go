package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update", false, "regenerate testdata/figure_pins.json from the current harness")

const figurePinsFile = "testdata/figure_pins.json"

// figurePins renders every table and figure at quick() scale (Table 4 at
// TestTable4Small's), keyed by figure, each text split into lines so a
// changed figure diffs line by line. Fig 11's seconds are measured
// wall-clock, so only its run counts are pinned.
func figurePins(t *testing.T) map[string][]string {
	t.Helper()
	ctx := context.Background()
	o := quick()
	pins := map[string][]string{}
	pin := func(name, text string) { pins[name] = strings.Split(text, "\n") }

	pin("table1", Table1())
	pin("table3", Table3())
	t4, err := table4Small()
	if err != nil {
		t.Fatal(err)
	}
	pin("table4", t4.Render())

	for _, f := range []struct {
		name string
		run  func(context.Context, Options) (*SpeedupResult, error)
	}{{"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig12", Fig12}} {
		r, err := f.run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		pin(f.name, r.Render())
		pin(f.name+".csv", r.CSV())
	}
	f13, err := Fig13(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	pin("fig13", f13.Render())
	pin("fig13.csv", f13.CSV())

	f11, err := Fig11(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, row := range f11.Rows {
		runs = append(runs, fmt.Sprintf("%s baseline %d merlin %d", row.Structure, row.BaselineRuns, row.MerlinRuns))
	}
	pins["fig11.runs"] = runs

	acc, err := quickAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	pin("fig6", acc.RenderFig6())
	pin("fig7", acc.RenderFig7())
	pin("fig14", acc.RenderFig14())
	pin("fig15", acc.RenderFig15())
	pin("fig16", acc.RenderFig16())
	pin("fig17", acc.RenderFig17())
	pin("theory", acc.RenderTheory())
	pin("accuracy.csv", acc.CSV())

	abl, err := Ablation(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	pin("ablation", abl.Render())
	return pins
}

// TestFigurePins holds every figure's text to the committed copy, so a
// change to the harness or to the pipeline underneath it that is not meant
// to move the paper's numbers passes without -update.
func TestFigurePins(t *testing.T) {
	got := figurePins(t)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figurePinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(figurePinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned figures, computed %d", len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if w, ok := want[name]; !ok || !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s:\n got:\n%s\n want:\n%s", name, strings.Join(got[name], "\n"), strings.Join(w, "\n"))
		}
	}
}
