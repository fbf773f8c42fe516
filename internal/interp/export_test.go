package interp

// StepFlushChunk exports the step batch for the external tests.
const StepFlushChunk = stepFlushChunk
