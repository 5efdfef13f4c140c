package cpu

import (
	"testing"

	"merlin/internal/asm"
)

func BenchmarkSimSpeed(b *testing.B) {
	p, err := asm.Assemble("perf", `
		.data
	arr:	.space 8192
		.text
		li r1, 0
		li r3, 1024
		li r5, arr
	fill:	mul r4, r1, r1
		sd [r5], r4
		addi r5, r5, 8
		addi r1, r1, 1
		blt r1, r3, fill
		li r9, 0
		li r6, 0
		li r10, 100
	outer:	li r5, arr
		li r1, 0
	sum:	ld r4, [r5]
		add r9, r9, r4
		addi r5, r5, 8
		addi r1, r1, 1
		blt r1, r3, sum
		addi r6, r6, 1
		blt r6, r10, outer
		out r9
		halt
	`)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Building a core allocates its 1 MB L2 and 75 KB of predictor
		// tables; that is set-up, not simulation speed.
		b.StopTimer()
		c := New(DefaultConfig(), p)
		b.StartTimer()
		res := c.Run(100_000_000)
		if res.Halt != HaltOK {
			b.Fatal(res.Halt)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}
