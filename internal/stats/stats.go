// Package stats provides the small statistical toolkit used by the
// experiment harness: means, standard deviations, relative standard
// deviations (the percentages of Table V), normalization against a baseline
// (Figures 6-9), and matrix-similarity metrics used to score how close a
// detected communication pattern is to the full-trace oracle.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and reports summary statistics.
// The zero value is an empty sample.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddUint appends an unsigned observation.
func (s *Sample) AddUint(x uint64) { s.Add(float64(x)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (Bessel-corrected), or 0 for
// fewer than two observations.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// RelStdDev returns the standard deviation as a percentage of the mean
// (the coefficient of variation, the unit used by Table V), or 0 when the
// mean is zero.
func (s *Sample) RelStdDev() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return 100 * s.StdDev() / m
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	min := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Percentile returns the p-th percentile (p in [0, 100]) of the sample by
// the nearest-rank method, or 0 for an empty sample. It is the latency
// summary of the serving benchmarks (p50/p99 query latency).
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, s.xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g (%.2f%%)", s.N(), s.Mean(), s.StdDev(), s.RelStdDev())
}

// Normalize returns value/baseline, the y-axis of Figures 6-9 ("normalized
// to the OS scheduler"). A zero baseline yields 1 when the value is also
// zero (no change) and +Inf otherwise.
func Normalize(value, baseline float64) float64 {
	if baseline == 0 {
		if value == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return value / baseline
}

// PearsonCorrelation returns the correlation coefficient of two equal-length
// vectors, or 0 when either vector is constant or the lengths differ. It is
// used to score detected communication matrices against the oracle pattern.
func PearsonCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	// Correlation is invariant under positive scaling, so normalize each
	// vector by its largest magnitude first; this keeps every intermediate
	// sum finite even for inputs near the float64 range limits.
	var scaleA, scaleB float64
	for i := range a {
		if d := math.Abs(a[i]); d > scaleA {
			scaleA = d
		}
		if d := math.Abs(b[i]); d > scaleB {
			scaleB = d
		}
	}
	if scaleA == 0 || scaleB == 0 {
		return 0 // at least one vector is all zeros: constant
	}
	n := float64(len(a))
	var sumA, sumB float64
	for i := range a {
		sumA += a[i] / scaleA
		sumB += b[i] / scaleB
	}
	meanA, meanB := sumA/n, sumB/n
	var cov, varA, varB float64
	for i := range a {
		da, db := a[i]/scaleA-meanA, b[i]/scaleB-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}
