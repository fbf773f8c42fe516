package interp

import "repro/internal/lang"

// StepFlushChunk exports the step batch for the external tests.
const StepFlushChunk = stepFlushChunk

// TraceSteps makes every statement ip runs publish alone, and calls f
// with each charge as it is made: a statement's position with trips 0,
// before the statement runs, and a forall entry's with its trip count.
// It is the per-statement count the step ledger batches, kept as the
// oracle TestWalkStepLimitExact holds every engine to.
func (ip *Interp) TraceSteps(f func(pos lang.Pos, trips int64)) {
	ip.trace = f
	ip.stepMark = 0
}
