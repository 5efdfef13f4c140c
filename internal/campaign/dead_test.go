package campaign

import (
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
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

// TestACEVulnerableNeverOverwritten is TestACEVulnerableIsLive's twin for
// the overwrite watch: a fault the ACE-like analysis calls vulnerable is
// never classified by the watch. For every workload, RF and SQ (the watch
// does not arm on the L1D), one golden core walks a 2,000-fault list in
// cycle order as the Forked sweep does, and every fault live at the flip is
// classified by classifyAgainst on a flipped clone with a ForkSyncPoints
// ladder's rung cycles; one whose run the watch ended (handOff.overwritten) must lie
// outside every vulnerable interval. The share of the ACE-masked live
// faults the watch decided is logged per list. -short and -race check
// shortWorkloads only.
func TestACEVulnerableNeverOverwritten(t *testing.T) {
	const n = 2000
	names := workloads.Names("")
	if testing.Short() || raceEnabled {
		names = shortWorkloads
	}
	for _, name := range names {
		r := NewRunner(target(t, name))
		g, err := r.RunGolden(lifetime.StructRF, lifetime.StructSQ)
		if err != nil {
			t.Fatal(err)
		}
		rungs := CheckpointSchedule(ForkSyncPoints, g.Result.Cycles)[1:]
		for _, s := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ} {
			c := r.NewCore()
			faults := sampling.Generate(s, c.StructureEntries(s), c.StructureEntryBits(s), g.Result.Cycles, n, 1)
			ace := g.Tracer.Analysis(s)
			h := new(handOff)
			aceMasked, overwritten := 0, 0
			for _, i := range fault.SortedIndices(faults) {
				f := faults[i]
				for c.Cycle()+1 < f.Cycle && c.Halted() == cpu.Running {
					c.Step()
				}
				if c.Dead(f.Structure, int(f.Entry)) {
					continue
				}
				_, vulnerable := ace.Find(f.Entry, f.Byte(), f.Cycle)
				before := h.overwritten
				r.inject(c.Clone(), f, &g.Result, rungs, nil, h)
				switch {
				case h.overwritten > before && vulnerable:
					t.Errorf("%s/%v fault %v: ACE-vulnerable, but the overwrite watch classified it", name, s, f)
				case vulnerable:
				case h.overwritten > before:
					overwritten++
					aceMasked++
				default:
					aceMasked++
				}
			}
			share := 0.0
			if aceMasked > 0 {
				share = 100 * float64(overwritten) / float64(aceMasked)
			}
			t.Logf("%s/%v: the watch decided %d of %d ACE-masked live faults (%.0f%%)", name, s, overwritten, aceMasked, share)
		}
	}
}
