package campaign

// resetMachines empties the process-wide machine table, so the next Runner
// of any program starts as in a process that has run no campaign: no
// golden ladder, an empty pool, no golden checkpoints.
func resetMachines() {
	machines.Lock()
	machines.entries = nil
	machines.Unlock()
}

// goldenLadder is the ladder a Forked Run of r not served one by a
// SnapshotCache cuts its walk at: the golden ladder of r's rung count, else
// the reset state alone.
func (r *Runner) goldenLadder() *CheckpointSet {
	e := machineFor(r.Target)
	if l := e.ladder(r.ladderRungs()); l != nil {
		return l
	}
	return e.ladders[0]
}
