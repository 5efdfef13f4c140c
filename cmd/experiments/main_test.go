package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"merlin/internal/experiments"
)

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
