package cpu_test

import (
	"testing"

	"merlin/internal/asm"
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

// wrongPathKernel is a loop whose branch outcome is a pseudo-random bit
// behind a divide, so about half its iterations run the other arm
// speculatively for ~20 cycles before the squash. On that arm one load
// forwards from a store with a known address, and another sits blocked
// behind a store whose address waits on a second divide, recomputing its
// own address from r9 every cycle: the reads that only a squashed µop makes.
const wrongPathKernel = `	li r12, 0
	li r11, 0x40000
	li r14, 1
	li r5, 12345
	li r7, 0
	li r13, 30
loop:
	muli r5, r5, 1103515245
	addi r5, r5, 12345
	srli r6, r5, 16
	andi r6, r6, 1
	div r6, r6, r14
	beq r6, r12, skip
	muli r9, r11, 1
	sd [r11+0], r5
	ld r1, [r9+0]
	div r10, r9, r14
	sd [r10+8], r5
	ld r2, [r9+8]
	add r7, r7, r1
	add r7, r7, r2
skip:
	addi r13, r13, -1
	bne r13, r12, loop
	out r7
	halt
`

// TestWatchMatchesMaskedEquivalent is TestDeadMatchesMaskedEquivalent's twin
// for the overwrite watch: an unread flip that the watch ends WatchMasked
// leaves the faulty core masked-equivalent to its fault-free twin. A bit of
// every live RF and SQ entry is flipped in a clone, which then steps in
// lockstep with an unflipped clone until the watch ends, the twin halts, or
// a horizon passes; at every WatchMasked end MaskedEquivalent must hold.
// The flips are made at 16 evenly spaced cycles of sha, djpeg, gcc and one
// generated kernel per class, under the default and the smallest Table 1
// configuration, and at every cycle of wrongPathKernel, where the only
// read of a flip can be a load that the squash then discards: SQ
// forwarding, or loadBlocked's address. The watch must count those reads.
// The race detector checks 4 points and every 8th cycle.
func TestWatchMatchesMaskedEquivalent(t *testing.T) {
	points, stride := uint64(16), uint64(1)
	if raceEnabled {
		points, stride = 4, 8
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
	structures := []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ}
	var ends [lifetime.NumStructures][cpu.WatchMasked + 1]int
	check := func(name string, c *cpu.Core, horizon int) {
		for _, s := range structures {
			for e := range c.StructureEntries(s) {
				if c.Dead(s, e) {
					continue
				}
				bit := e * 7 % c.StructureEntryBits(s)
				faulty, twin := c.Clone(), c.Clone()
				faulty.FlipBit(s, e, bit)
				end := cpu.WatchOpen
				for n := 0; n < horizon && end == cpu.WatchOpen && twin.Halted() == cpu.Running; n++ {
					faulty.Step()
					twin.Step()
					end = faulty.Watch()
				}
				ends[s][end]++
				if end == cpu.WatchMasked && !cpu.MaskedEquivalent(faulty, twin) {
					t.Fatalf("%s: %v entry %d bit %d flipped at cycle %d: the watch ended masked at cycle %d, but the core is not masked-equivalent to its twin",
						name, s, e, bit, c.Cycle(), faulty.Cycle())
				}
			}
		}
	}
	for _, p := range progs {
		for cfgName, cfg := range cfgs {
			res := cpu.New(cfg, p).Run(50_000_000)
			c := cpu.New(cfg, p)
			for i := uint64(1); i <= points; i++ {
				for c.Cycle() < res.Cycles*i/(points+1) {
					c.Step()
				}
				check(p.Name+"/"+cfgName, c, 2000)
			}
		}
	}
	for c := cpu.New(cpu.DefaultConfig(), asm.MustAssemble("wrong-path", wrongPathKernel)); c.Halted() == cpu.Running; c.Step() {
		if c.Cycle()%stride == 0 {
			check("wrong-path", c, 40)
		}
	}
	for _, s := range structures {
		if ends[s][cpu.WatchMasked] == 0 || ends[s][cpu.WatchRead] == 0 {
			t.Errorf("%v: watch ends %v (open, read, masked); the check needs masked and read ends", s, ends[s])
		}
		t.Logf("%v: %d live flips: %d masked, %d read, %d still open at the horizon",
			s, ends[s][0]+ends[s][1]+ends[s][2], ends[s][cpu.WatchMasked], ends[s][cpu.WatchRead], ends[s][cpu.WatchOpen])
	}
}
