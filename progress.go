package merlin

// ProgressKind discriminates the events of a Session's progress stream.
type ProgressKind uint8

const (
	// ProgressPhaseStart marks a pipeline phase beginning.
	ProgressPhaseStart ProgressKind = iota
	// ProgressPhaseDone marks a pipeline phase completing. For
	// PhasePreprocess it also carries the golden-run artifact cache
	// outcome (CacheHit, CacheErr).
	ProgressPhaseDone
	// ProgressFault reports one classified fault of the injection (or
	// baseline) phase.
	ProgressFault
)

// Phase names a pipeline phase of a Session, mirroring the paper's Fig 2.
type Phase string

// The phases a Session reports progress for. PhaseBatch is emitted only
// by Batch: its preprocess event covers the one golden run every
// structure shares, and its done event carries the cross-structure
// summary.
const (
	PhasePreprocess Phase = "preprocess"
	PhaseReduce     Phase = "reduce"
	PhaseInject     Phase = "inject"
	PhaseBaseline   Phase = "baseline"
	PhaseBatch      Phase = "batch"
)

// Progress is one event of a Session's typed progress stream: phase
// transitions, the cache hit/miss of Preprocess, and per-fault outcomes
// (fed by the campaign.Plan.OnOutcome hook). Fault events are
// emitted from injection worker goroutines, concurrently and in completion
// (not input) order — a WithProgress callback must be safe for concurrent
// use and should return quickly.
type Progress struct {
	Kind  ProgressKind
	Phase Phase
	// Structure names the structure the event belongs to ("RF", "SQ",
	// "L1D"): the session's injection target for session-phase and fault
	// events, empty for batch-level events (the shared-golden preprocess
	// and the batch summary, which span every structure of the batch).
	Structure string
	// Msg is a one-line human-readable summary (ProgressPhaseDone only).
	Msg string

	// CacheHit and CacheErr describe the golden-run artifact cache
	// outcome on the preprocess ProgressPhaseDone event: whether the
	// golden run was served from the cache, and a non-fatal store failure
	// if persisting a miss failed.
	CacheHit bool
	CacheErr error

	// SnapshotHit and CyclesPerSec are set on the inject/baseline
	// ProgressPhaseDone event: whether a shared SnapshotCache served the
	// checkpoint ladder, so the campaign replayed none (Work.SnapshotHit),
	// and the
	// campaign's effective simulation throughput (simulated cycles per
	// wall-clock second across all injection workers).
	SnapshotHit  bool
	CyclesPerSec float64

	// StaticPruned is set on the reduce ProgressPhaseDone event: how many
	// fault sites the guestflow static pre-pruner classified masked
	// without a dynamic interval lookup (0 unless WithStaticPrune).
	StaticPruned int

	// ProgressFault events: the fault's index in the injected list, the
	// fault itself, and its classification.
	Index   int
	Fault   Fault
	Outcome Outcome
}
