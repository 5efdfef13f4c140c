package conformance

import (
	"testing"
	"time"

	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
)

// BenchmarkConformanceSuite measures one sweep of the generated-kernel
// conformance suite (every class, a handful of seeds, default core). The
// wall-ms metric is what a CI-sized certification pass costs.
func BenchmarkConformanceSuite(b *testing.B) {
	const seedsPerClass = 4
	cfg := cpu.DefaultConfig()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, class := range gen.Classes() {
			for seed := uint64(0); seed < seedsPerClass; seed++ {
				rep := Run(gen.Kernel(class, seed), Config{CPU: cfg})
				if !rep.Conformant() {
					b.Fatalf("%s seed %d: %v", class, seed, rep.Divergence)
				}
			}
		}
	}
	b.ReportMetric(time.Since(start).Seconds()*1000/float64(b.N), "wall-ms")
}
