package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"merlin"
)

// pin is the part of a campaign report that verification compares: the
// result fields only. Everything the report says about how the result was
// obtained (SimCycles, Clones, cache hits, every timing) is left out, so a
// pin is identical across strategies, caches, the daemon and the fleet.
type pin struct {
	Structure     string
	GoldenCycles  uint64
	InitialFaults int
	ACEMasked     int
	PostACE       int
	FinalGroups   int
	Injected      int
	Dist          merlin.Dist
	AVF           float64
	FIT           float64
	RepOutcomes   string // sha256 of the representatives' outcome classes, in order
}

func pinOf(r *merlin.Report) pin {
	h := sha256.New()
	for _, o := range r.RepOutcomes {
		h.Write([]byte{byte(o)})
	}
	return pin{
		Structure:     r.Structure.String(),
		GoldenCycles:  r.GoldenCycles,
		InitialFaults: r.InitialFaults,
		ACEMasked:     r.ACEMasked,
		PostACE:       r.PostACE,
		FinalGroups:   r.FinalGroups,
		Injected:      r.Injected,
		Dist:          r.Dist,
		AVF:           r.AVF,
		FIT:           r.FIT,
		RepOutcomes:   hex.EncodeToString(h.Sum(nil)),
	}
}

func pinsOf(reps []*merlin.Report) []pin {
	out := make([]pin, len(reps))
	for i, r := range reps {
		out[i] = pinOf(r)
	}
	return out
}

// expectedJSON pins, per workload, the reports of seed 1: one entry per
// fault list of the workload's cycle, each the pins of that operation's
// reports (one for a campaign, one per structure for a batch).
//
//go:embed expected.json
var expectedJSON []byte

const expectedPath = "bench/expected.json"

func loadExpected() (map[string][][]pin, error) {
	exp := map[string][][]pin{}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return exp, nil
}

// oracle holds what each fault list's reports must equal. Lists pinned up
// front (expected.json at seed 1, the library reference of a daemon or
// fleet workload at any seed) are fixed; an unpinned list is pinned by its
// first report, which makes every later campaign on it agree with the
// first.
type oracle struct {
	want [][]pin
}

func newOracle(lists int) *oracle { return &oracle{want: make([][]pin, lists)} }

// fix pins every list to the given reports.
func (o *oracle) fix(want [][]pin) error {
	if len(want) != len(o.want) {
		return fmt.Errorf("oracle has %d fault lists, pins cover %d", len(o.want), len(want))
	}
	copy(o.want, want)
	return nil
}

// check reports whether got is the expected result of fault list list.
func (o *oracle) check(list int, got []pin) error {
	if len(got) == 0 {
		return fmt.Errorf("list %d: no report", list)
	}
	if o.want[list] == nil {
		o.want[list] = got
		return nil
	}
	if !reflect.DeepEqual(o.want[list], got) {
		return fmt.Errorf("list %d: report differs from its pin:\n got  %+v\n want %+v", list, got, o.want[list])
	}
	return nil
}

// writeExpected replaces one workload's entry of bench/expected.json.
func writeExpected(workload string, pins [][]pin) error {
	exp := map[string][][]pin{}
	if raw, err := os.ReadFile(expectedPath); err == nil {
		if err := json.Unmarshal(raw, &exp); err != nil {
			return fmt.Errorf("%s: %w", expectedPath, err)
		}
	}
	exp[workload] = pins
	// One line per operation keeps the file reviewable: workloads in name
	// order, then fault lists in cycle order.
	names := make([]string, 0, len(exp))
	for name := range exp {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, name := range names {
		fmt.Fprintf(&buf, " %q: [\n", name)
		for j, op := range exp[name] {
			line, err := json.Marshal(op)
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "  %s%s\n", line, comma(j, len(exp[name])))
		}
		fmt.Fprintf(&buf, " ]%s\n", comma(i, len(names)))
	}
	buf.WriteString("}\n")
	return os.WriteFile(expectedPath, buf.Bytes(), 0o644)
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
