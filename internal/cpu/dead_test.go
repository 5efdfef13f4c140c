package cpu_test

import (
	"testing"

	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/workloads"
)

// TestDeadMatchesMaskedEquivalent: Dead is MaskedEquivalent's own rule taken
// at distance zero, in both directions. At 16 evenly spaced cycles of sha,
// djpeg, gcc and one generated kernel per class, under the default and the
// smallest Table 1 configuration, flipping bit 0, the middle bit or the top
// bit of any RF, SQ or L1D entry in a clone of the core leaves the clone
// masked-equivalent to the core exactly when Dead calls the entry dead: it
// claims neither more nor less than the ladder's check. (One clone serves a
// point; each flip is undone after its check.) The race detector checks 4
// points.
func TestDeadMatchesMaskedEquivalent(t *testing.T) {
	points := uint64(16)
	if raceEnabled {
		points = 4
	}
	progs := []*isa.Program{}
	for _, name := range []string{"sha", "djpeg", "gcc"} {
		progs = append(progs, workloads.MustGet(name).Program())
	}
	for _, class := range gen.Classes() {
		progs = append(progs, gen.Kernel(class, 1))
	}
	cfgs := map[string]cpu.Config{
		"default": cpu.DefaultConfig(),
		"small":   cpu.DefaultConfig().WithRF(64).WithSQ(16).WithL1D(16 << 10),
	}
	structures := []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D}
	var dead, live [lifetime.NumStructures]int
	for _, p := range progs {
		for cfgName, cfg := range cfgs {
			res := cpu.New(cfg, p).Run(50_000_000)
			if res.Halt != cpu.HaltOK {
				t.Fatalf("%s/%s: fault-free run ended with %v", p.Name, cfgName, res.Halt)
			}
			c := cpu.New(cfg, p)
			for i := uint64(0); i < points; i++ {
				for c.Cycle() < res.Cycles*i/points {
					c.Step()
				}
				flipped := c.Clone()
				for _, s := range structures {
					bits := c.StructureEntryBits(s)
					for e := range c.StructureEntries(s) {
						isDead := c.Dead(s, e)
						if isDead {
							dead[s]++
						} else {
							live[s]++
						}
						for _, b := range []int{0, bits / 2, bits - 1} {
							flipped.FlipBit(s, e, b)
							masked := cpu.MaskedEquivalent(flipped, c)
							flipped.FlipBit(s, e, b)
							if masked != isDead {
								t.Fatalf("%s/%s cycle %d: %v entry %d bit %d: Dead %v, MaskedEquivalent after the flip %v",
									p.Name, cfgName, c.Cycle(), s, e, b, isDead, masked)
							}
						}
					}
				}
			}
		}
	}
	for _, s := range structures {
		if dead[s] == 0 || live[s] == 0 {
			t.Errorf("%v: %d dead and %d live entries sampled; the check needs both", s, dead[s], live[s])
		}
		t.Logf("%v: %d of %d sampled entries dead", s, dead[s], dead[s]+live[s])
	}
}
