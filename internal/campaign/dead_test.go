package campaign

import (
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// TestACEVulnerableIsLive is a differential between the ACE-like analysis
// and the simulator: a fault the analysis calls vulnerable never lands in
// storage the core calls dead at the flip. For every workload and structure,
// one golden core walks a 2,000-fault list in cycle order, stopping where
// the Forked sweep would fork each fault (the cycle before its flip); every
// fault Analysis.Find places in a vulnerable interval must find its entry
// live there. The share of the list that is dead at the flip — what the
// Forked sweep classifies without a clone — is logged per list. -short and
// -race check shortWorkloads only.
func TestACEVulnerableIsLive(t *testing.T) {
	const n = 2000
	names := workloads.Names("")
	if testing.Short() || raceEnabled {
		names = shortWorkloads
	}
	for _, name := range names {
		r := NewRunner(target(t, name))
		g, err := r.RunGolden(allStructures...)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range allStructures {
			c := r.NewCore()
			faults := sampling.Generate(s, c.StructureEntries(s), c.StructureEntryBits(s), g.Result.Cycles, n, 1)
			ace := g.Tracer.Analysis(s)
			dead, vulnerable := 0, 0
			for _, i := range fault.SortedIndices(faults) {
				f := faults[i]
				for c.Cycle()+1 < f.Cycle && c.Halted() == cpu.Running {
					c.Step()
				}
				isDead := c.Dead(f.Structure, int(f.Entry))
				if isDead {
					dead++
				}
				if _, hit := ace.Find(f.Entry, f.Byte(), f.Cycle); hit {
					vulnerable++
					if isDead {
						t.Errorf("%s/%v fault %v: ACE-vulnerable, but its entry is dead at the flip", name, s, f)
					}
				}
			}
			t.Logf("%s/%v: %d of %d faults dead at the flip (%.0f%%), %d ACE-vulnerable",
				name, s, dead, n, 100*float64(dead)/n, vulnerable)
		}
	}
}
