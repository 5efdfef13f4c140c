package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smoke runs one workload at smoke scale (cut-down fault count, one
// set-up, one campaign) and checks the result is complete and verified.
func smoke(t *testing.T, w *workload, traced bool, table []metricDef) {
	t.Helper()
	o := runOpts{seed: 7, seconds: 1, trace: traced, smoke: true, outDir: t.TempDir()}
	var log bytes.Buffer
	res, err := run(context.Background(), w, o, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.Name, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", w.Name, res.Correct, res.Attempted, res.Failed, log.String())
	}
	if len(res.Metrics) != len(table) {
		t.Fatalf("%s: %d metrics emitted, table has %d", w.Name, len(res.Metrics), len(table))
	}
	for _, d := range table {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or unit %q != %q", w.Name, d.Name, v.Unit, d.Unit)
		}
	}
	if leftovers, _ := filepath.Glob(filepath.Join(o.outDir, "*-*")); traced && len(leftovers) != 1 {
		t.Errorf("%s: scratch directories left behind: %v", w.Name, leftovers) // only trace-<workload>.json stays
	}
	if !traced {
		return
	}

	// The trace file: phase spans are contiguous children of their
	// campaign span, so they sum to it.
	raw, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.Name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	sums := map[int]time.Duration{}
	for _, s := range tf.Spans {
		if s.Parent >= 0 && tf.Spans[s.Parent].Parent < 0 {
			sums[s.Parent] += s.dur()
		}
	}
	if len(sums) == 0 {
		t.Fatalf("%s: trace has no campaign with phase spans", w.Name)
	}
	for id, sum := range sums {
		if whole := tf.Spans[id].dur(); sum > whole || float64(sum) < 0.95*float64(whole) {
			t.Errorf("%s: phases of campaign span %d sum to %v of %v", w.Name, id, sum, whole)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	for i := range workloads {
		smoke(t, &workloads[i], true, perLayer)
	}
}

func TestSmokeUntraced(t *testing.T) {
	for _, name := range []string{"lib_replay_rf", "daemon_burst"} { // one sequential loop, one burst
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		smoke(t, w, false, endToEnd)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json and the harness name the
// same workloads and metrics, both ways.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %s: %s", i, got, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, g, d)
			}
			if !name.MatchString(d.Name) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s: bad name or direction", kind, d.Name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, table %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}

	// Every workload has its seed-1 pins, one entry per fault list.
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(exp[w.Name]) != w.Lists {
			t.Errorf("expected.json pins %d fault lists of %s, want %d", len(exp[w.Name]), w.Name, w.Lists)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, // fewer than ten samples beyond the median
		{20, 50, true}, {39, 50, true},
		{40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, StartNS: 30, EndNS: 60},    // overlaps span 1: counted once
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120},   // sticks out: clipped to the parent
		{ID: 4, Parent: 1, StartNS: 10, EndNS: 40},    // covers its parent entirely
		{ID: 5, Parent: -1, StartNS: 200, EndNS: 250}, // no children
	}
	want := []time.Duration{100 - 50 - 10, 0, 30, 30, 30, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "campaign_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "faults_per_s", Better: "higher", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, c := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		verdict string
	}{
		{"within the bound", lower, steady(1), steady(1.08), verdictOK},
		{"worse by more than the bound", lower, steady(1), steady(1.12), verdictRegression},
		{"better by more than the bound", lower, steady(1), steady(0.85), verdictBetter},
		{"higher-is-better regression", higher, steady(100), steady(85), verdictRegression},
		{"higher-is-better gain is not a regression", higher, steady(100), steady(120), verdictBetter},
		{"spread wider than the bound", lower, []float64{0.8, 0.9, 1, 1.1, 1.2}, steady(1.2), verdictUnresolved},
		{"wide spread, but every run of b beats every run of a", lower, []float64{2.0, 2.3, 2.6, 2.9, 3.2}, steady(1), verdictBetter},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	rows := []row{{Workload: "lib_replay_rf", Metrics: map[string]value{"campaign_wall_s": {Value: 1, Unit: "s"}}}}
	a := resultFile{Host: host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}, Rows: rows}
	b := a
	b.Host.GOMAXPROCS = 1
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.write(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.write(pb); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := compareFiles(pa, pb, &out); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("comparing GOMAXPROCS 2 with 1: err = %v", err)
	}
	if regressed, err := compareFiles(pa, pa, &out); err != nil || regressed {
		t.Errorf("comparing a file with itself: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), "b/a 1.000x of a's 1") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}
}
