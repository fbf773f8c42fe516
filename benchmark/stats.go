package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing's observations.
type samples []float64

func (s *samples) add(v float64)      { *s = append(*s, v) }
func (s *samples) since(t0 time.Time) { s.add(time.Since(t0).Seconds()) }
func (s samples) sorted() []float64   { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s samples) median() float64     { return quantile(s.sorted(), 0.5) }
func (s samples) quartiles() (q1, q3 float64) {
	c := s.sorted()
	return quantile(c, 0.25), quantile(c, 0.75)
}

// quantile interpolates linearly between the order statistics of an
// ascending slice; an empty slice has no quantile and reads NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// rng is splitmix64: the benchmark's own seeded draw, so the request
// sequence depends on -seed alone.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
