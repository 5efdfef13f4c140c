package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"merlin"
	"merlin/internal/experiments"
)

// TestSubsetsTrimSpaces: -workloads and -structures take names with spaces
// around the commas, as merlin -structures does, and an unknown structure
// is still an error.
func TestSubsetsTrimSpaces(t *testing.T) {
	var o experiments.Options
	if err := subsets(&o, "sha, qsort ", " RF, SQ"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(o.Workloads, []string{"sha", "qsort"}) || !slices.Equal(o.Structures, []merlin.Structure{merlin.RF, merlin.SQ}) {
		t.Errorf("subsets gave workloads %q, structures %v", o.Workloads, o.Structures)
	}
	if err := subsets(&experiments.Options{}, "", "RF, ROB"); err == nil {
		t.Error("an unknown structure parsed")
	}
}

// TestSpeedupsWriteCSV: -experiment speedups -csv DIR leaves one CSV per
// figure it runs, Fig 13's included.
func TestSpeedupsWriteCSV(t *testing.T) {
	dir := t.TempDir()
	o := experiments.Options{Faults: 60, ScaleFactor: 2, Workloads: []string{"sha"}, Seed: 1}
	if err := run(context.Background(), "speedups", o, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig8", "fig9", "fig10", "fig12", "fig13"} {
		if _, err := os.Stat(filepath.Join(dir, name+".csv")); err != nil {
			t.Error(err)
		}
	}
}
