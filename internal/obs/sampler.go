package obs

import "sync/atomic"

// Sampler makes the trace-rate decision: Sample() answers true for
// roughly rate × the calls, deterministically (every Nth call, N =
// round(1/rate)) rather than randomly, so a load test at -trace-rate
// 0.1 traces a predictable 1-in-10 and a test at rate 1 traces
// everything. A nil Sampler, or one built with rate <= 0, never
// samples and costs a nil/zero compare — no atomics — which is what
// keeps the not-sampled hot path free (the serve alloc test pins it).
type Sampler struct {
	every int64
	n     atomic.Int64
}

// NewSampler builds a sampler for rate (clamped to [0, 1]).
// rate <= 0 returns nil: never sample, zero cost.
func NewSampler(rate float64) *Sampler {
	if rate <= 0 {
		return nil
	}
	if rate >= 1 {
		return &Sampler{every: 1}
	}
	every := int64(1/rate + 0.5)
	if every < 1 {
		every = 1
	}
	return &Sampler{every: every}
}

// Sample decides one request. Nil-safe.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	if s.every == 1 {
		return true
	}
	return s.n.Add(1)%s.every == 0
}
