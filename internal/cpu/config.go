// Package cpu implements the simulated out-of-order x86-like core the
// reliability experiments run on: the substrate the paper obtains from Gem5.
//
// The core is deterministic and bit-accurate in the structures that matter
// to fault injection: the physical register file, the store-queue data
// field and the L1 data cache hold the program's actual values, and the
// fault injector flips exactly one stored bit at a chosen cycle. The model
// covers fetch with a tournament branch predictor / BTB / return address
// stack, decode into µops, register renaming with a free list, a unified
// issue queue, split load/store queues with store-to-load forwarding,
// wrong-path execution with full squash recovery, precise exceptions at
// commit, and a write-back two-level cache hierarchy.
//
// Campaigns spend almost all their time in Step, so the pipeline's dynamic
// state is laid out for it: a stage touches only what can change this
// cycle. What a µop is lives once per program in the immutable static µop
// table ((*isa.Program).Uops); decode-queue, ROB and issue-queue records
// hold an index into it plus what the dynamic instance adds, contain no
// pointer and no padding (clones are memmoves, state comparison is byte
// comparison), and are written in place. Writeback walks a bitmap of the
// executing µops, oldest first from the ROB head; issue decides "not this
// cycle" from an 8-byte record without touching the ROB; ring indices wrap
// by compare. The speculative-read buffers of the lifetime tracer are a
// side table only a traced core (AttachTracer) has. docs/ARCHITECTURE.md,
// "What a cycle costs", lists the invariants this layout must keep.
package cpu

import (
	"merlin/internal/lifetime"
	"merlin/internal/mem"
)

// Config sizes the core. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Pipeline widths.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int
	DecodeQCap  int

	// Structure capacities (paper Table 1).
	PhysRegs   int // physical integer register file: 256 / 128 / 64
	IQEntries  int // issue queue: 32
	ROBEntries int // reorder buffer: 100
	SQEntries  int // store queue: 64 / 32 / 16
	LQEntries  int // load queue: 64 / 32 / 16

	// Functional units (paper Table 1).
	IntALUs    int // 6 (also used for address generation and branches)
	IntMulDiv  int // 2 complex integer units
	LoadPorts  int
	StorePorts int

	// Execution latencies in cycles.
	MulLatency int
	DivLatency int

	// Memory hierarchy.
	L1I        mem.CacheConfig
	L1D        mem.CacheConfig
	L2         mem.CacheConfig
	MemLatency int

	// Branch prediction.
	BTBEntries      int // direct-mapped BTB for indirect targets
	RASEntries      int
	LocalHistTable  int // entries of the per-PC history table
	LocalPredTable  int // entries of the local pattern table
	GlobalPredTable int // entries of the gshare table and chooser
}

// commitWatchdog raises a simulator assertion if no µop commits for this
// many cycles; a healthy core never triggers it.
const commitWatchdog = 200_000

// DefaultConfig returns the paper's baseline configuration (Table 1):
// out-of-order x86-style core, 256 integer physical registers, 32-entry
// issue queue, 100-entry ROB, 64+64 LSQ, 6 int ALUs + 2 complex units,
// 32KB 4-way L1 caches, 1MB 16-way L2, tournament predictor, 4K-entry BTB.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		RenameWidth: 4,
		IssueWidth:  8,
		CommitWidth: 4,
		DecodeQCap:  24,

		PhysRegs:   256,
		IQEntries:  32,
		ROBEntries: 100,
		SQEntries:  64,
		LQEntries:  64,

		IntALUs:    6,
		IntMulDiv:  2,
		LoadPorts:  2,
		StorePorts: 2,

		MulLatency: 3,
		DivLatency: 20,

		L1I:        mem.CacheConfig{Name: "L1I", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 1},
		L1D:        mem.CacheConfig{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 2},
		L2:         mem.CacheConfig{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 16, HitLatency: 12},
		MemLatency: 80,

		BTBEntries:      4096,
		RASEntries:      16,
		LocalHistTable:  1024,
		LocalPredTable:  1024,
		GlobalPredTable: 4096,
	}
}

// StructureGeometry returns how many injectable entries structure s has
// under this configuration and the width of one entry in bits — the
// coordinates of fault sampling and FlipBit, known without building a core.
func (c Config) StructureGeometry(s lifetime.StructureID) (entries, entryBits int) {
	switch s {
	case lifetime.StructRF:
		return c.PhysRegs, 64
	case lifetime.StructSQ:
		return c.SQEntries, 64
	case lifetime.StructL1D:
		return c.L1D.Sets() * c.L1D.Ways, c.L1D.LineSize * 8
	}
	return 0, 0
}

// WithRF returns the config with n physical integer registers.
func (c Config) WithRF(n int) Config { c.PhysRegs = n; return c }

// WithSQ returns the config with n store (and n load) queue entries.
func (c Config) WithSQ(n int) Config { c.SQEntries, c.LQEntries = n, n; return c }

// WithL1D returns the config with an L1 data cache of size bytes
// (64B lines, 4 ways, per Table 1).
func (c Config) WithL1D(size int) Config {
	c.L1D = mem.CacheConfig{Name: "L1D", Size: size, LineSize: 64, Ways: 4, HitLatency: 2}
	return c
}
