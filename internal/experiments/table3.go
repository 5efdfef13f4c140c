package experiments

import "fmt"

// ExhaustiveModel reproduces Table 3: starting from the exhaustive fault
// list of each abstraction level, how many faults each method actually
// injects, the pruning gain, and the serial evaluation time of both lists.
type ExhaustiveModel struct {
	Cycles float64 // benchmark length in cycles (the paper assumes 1e9)

	// Structure sizes of the §4.2 scenario: L1D 32KB, SQ 16 entries,
	// RF 64 registers.
	RFBits  float64
	SQBits  float64
	L1DBits float64

	// Simulation throughputs (cycles/second): full-system cycle-accurate
	// vs software emulation (the paper quotes 1e5 and 1e6 for Gem5).
	UarchCPS float64
	SWCPS    float64

	// SWFaultBitsPerCycle approximates the software-level exhaustive list
	// density: architectural operand bits exposed per cycle.
	SWFaultBitsPerCycle float64

	// Remaining faults after each method's pruning.
	MerlinRemaining  float64
	RelyzerRemaining float64
}

// DefaultExhaustiveModel returns the Table 3 scenario.
func DefaultExhaustiveModel() ExhaustiveModel {
	return ExhaustiveModel{
		Cycles:              1e9,
		RFBits:              64 * 64,
		SQBits:              16 * 64,
		L1DBits:             32 * 1024 * 8,
		UarchCPS:            1e5,
		SWCPS:               1e6,
		SWFaultBitsPerCycle: 100,
		MerlinRemaining:     1e3,
		RelyzerRemaining:    1e6,
	}
}

// Table3Row is one line of Table 3.
type Table3Row struct {
	Method         string
	Exhaustive     float64 // faults in the exhaustive list
	Remaining      float64 // faults left to inject
	Gain           float64 // Exhaustive / Remaining
	ExhaustiveTime float64 // seconds to inject the exhaustive list serially
	RemainingTime  float64 // seconds to inject the remaining list serially
}

// years converts seconds to years.
func years(sec float64) float64 { return sec / (365.25 * 24 * 3600) }

// months converts seconds to months.
func months(sec float64) float64 { return sec / (30 * 24 * 3600) }

// Table3 computes both rows of the comparison.
func (m ExhaustiveModel) Table3() [2]Table3Row {
	runSecUarch := m.Cycles / m.UarchCPS
	runSecSW := m.Cycles / m.SWCPS

	merlinExh := (m.RFBits + m.SQBits + m.L1DBits) * m.Cycles
	relyzerExh := m.SWFaultBitsPerCycle * m.Cycles

	return [2]Table3Row{
		{
			Method:         "MeRLiN",
			Exhaustive:     merlinExh,
			Remaining:      m.MerlinRemaining,
			Gain:           merlinExh / m.MerlinRemaining,
			ExhaustiveTime: merlinExh * runSecUarch,
			RemainingTime:  m.MerlinRemaining * runSecUarch,
		},
		{
			Method:         "Relyzer",
			Exhaustive:     relyzerExh,
			Remaining:      m.RelyzerRemaining,
			Gain:           relyzerExh / m.RelyzerRemaining,
			ExhaustiveTime: relyzerExh * runSecSW,
			RemainingTime:  m.RelyzerRemaining * runSecSW,
		},
	}
}

// String renders the table alongside the paper's quoted magnitudes.
func (m ExhaustiveModel) String() string {
	rows := m.Table3()
	s := fmt.Sprintf("%-8s %12s %10s %10s %18s %16s\n",
		"Method", "Exhaustive", "Remaining", "Gain", "ExhaustiveTime", "RemainingTime")
	for _, r := range rows {
		s += fmt.Sprintf("%-8s %12.1e %10.1e %10.1e %15.1e yr %13.1f mo\n",
			r.Method, r.Exhaustive, r.Remaining, r.Gain,
			years(r.ExhaustiveTime), months(r.RemainingTime))
	}
	s += "paper:   MeRLiN 1e13 -> 1e3 (gain 1e10), ~3e9 years -> 4 months\n"
	s += "paper:   Relyzer 1e11 -> 1e6 (gain 1e5), ~3e6 years -> 32 years\n"
	return s
}
