// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate: speedups (Figs 8-10, 12, 13),
// homogeneity (Figs 6-7), accuracy (Figs 14-15, Table 4), FIT rates
// (Fig 16), estimation-time extrapolation (Fig 11), the Relyzer-heuristic
// comparison (Fig 17), the analytic exhaustive-list comparison (Table 3)
// and the §4.4.5 statistical analysis.
//
// Campaign scale is configurable: the paper's 60,000-fault lists are
// supported but default to smaller lists so the full suite reproduces in
// minutes; EXPERIMENTS.md records the scale used for the committed runs.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"merlin"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
)

// Options tunes an experiment run.
type Options struct {
	// Faults is the initial statistical fault list size per campaign
	// (the paper's comprehensive baseline uses 60,000).
	Faults int
	// ScaleFactor multiplies Faults for the Fig 13 scaling study
	// (the paper uses 10x: 600,000).
	ScaleFactor int
	// Workloads restricts the benchmark set (nil = the suite's ten).
	Workloads []string
	// Structures restricts the structure sweep (nil = RF, SQ and L1D):
	// figures iterating structure sizes only evaluate the listed targets.
	Structures []lifetime.StructureID
	// Workers bounds injection parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives fault sampling.
	Seed int64
	// Log receives progress lines (nil = quiet).
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Faults == 0 {
		o.Faults = 2000
	}
	if o.ScaleFactor == 0 {
		o.ScaleFactor = 10
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// sessionOptions maps experiment Options onto the session options for one
// (core config, structure, fault budget) campaign; injection takes the
// library's default strategy.
func (o Options) sessionOptions(cpuCfg cpu.Config, s lifetime.StructureID, faults int) []merlin.Option {
	return []merlin.Option{
		merlin.WithCPU(cpuCfg),
		merlin.WithStructure(s),
		merlin.WithFaults(faults),
		merlin.WithSeed(o.Seed),
		merlin.WithWorkers(o.Workers),
	}
}

// wantStructure applies the Structures filter (nil = everything).
func (o Options) wantStructure(s lifetime.StructureID) bool {
	if len(o.Structures) == 0 {
		return true
	}
	for _, want := range o.Structures {
		if want == s {
			return true
		}
	}
	return false
}

// filterSizes drops the structure sizes excluded by Options.Structures.
func (o Options) filterSizes(sizes []StructSize) []StructSize {
	if len(o.Structures) == 0 {
		return sizes
	}
	var out []StructSize
	for _, z := range sizes {
		if o.wantStructure(z.Structure) {
			out = append(out, z)
		}
	}
	return out
}

// StructSize is one (structure, size) configuration of Table 1.
type StructSize struct {
	Structure lifetime.StructureID
	Label     string
	Configure func(cpu.Config) cpu.Config
}

// The nine configurations evaluated for MiBench (Figs 6-11, 13-16).
func allSizes() []StructSize {
	return []StructSize{
		{lifetime.StructRF, "256regs", func(c cpu.Config) cpu.Config { return c.WithRF(256) }},
		{lifetime.StructRF, "128regs", func(c cpu.Config) cpu.Config { return c.WithRF(128) }},
		{lifetime.StructRF, "64regs", func(c cpu.Config) cpu.Config { return c.WithRF(64) }},
		{lifetime.StructSQ, "64entries", func(c cpu.Config) cpu.Config { return c.WithSQ(64) }},
		{lifetime.StructSQ, "32entries", func(c cpu.Config) cpu.Config { return c.WithSQ(32) }},
		{lifetime.StructSQ, "16entries", func(c cpu.Config) cpu.Config { return c.WithSQ(16) }},
		{lifetime.StructL1D, "64KB", func(c cpu.Config) cpu.Config { return c.WithL1D(64 << 10) }},
		{lifetime.StructL1D, "32KB", func(c cpu.Config) cpu.Config { return c.WithL1D(32 << 10) }},
		{lifetime.StructL1D, "16KB", func(c cpu.Config) cpu.Config { return c.WithL1D(16 << 10) }},
	}
}

func sizesFor(s lifetime.StructureID) []StructSize {
	var out []StructSize
	for _, z := range allSizes() {
		if z.Structure == s {
			out = append(out, z)
		}
	}
	return out
}

// specConfig is the §4.4.2.3 / §4.4.3.4 configuration: 128 physical
// registers, 16+16 LSQ entries, 32KB L1D.
func specConfig() cpu.Config {
	return cpu.DefaultConfig().WithRF(128).WithSQ(16).WithL1D(32 << 10)
}

// --- small text-table renderer ---

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pc(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// distRow renders the six classes of a distribution as percentages.
func distRow(d campaign.Dist) []string {
	out := make([]string, 0, int(campaign.Unknown))
	for o := campaign.Outcome(0); o < campaign.Unknown; o++ {
		out = append(out, pc(d.Share(o)))
	}
	return out
}

var classHeaders = []string{"Masked", "SDC", "DUE", "Timeout", "Crash", "Assert"}

// inaccuracyMax returns the largest per-class percentile difference.
func inaccuracyMax(a, b campaign.Dist) float64 {
	in := reduction.Inaccuracy(a, b)
	worst := 0.0
	for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
		if in[o] > worst {
			worst = in[o]
		}
	}
	return worst
}
