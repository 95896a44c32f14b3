package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of ascending values
// (0 for none).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
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

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first. p99 is the top: beyond it a run-to-run comparison rests on a
// handful of samples.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that leaves at least
// ten samples beyond it, with that percentile's value and the sample count.
// Below 20 samples no percentile qualifies and the median is returned.
func tail(xs []float64) (p, v float64, n int) {
	s := sortedCopy(xs)
	n = len(s)
	p = 50
	for _, q := range tailLadder {
		if n-int(math.Ceil(q/100*float64(n))) >= 10 {
			p = q
			break
		}
	}
	return p, percentile(s, p), n
}

// geomean returns the geometric mean of positive values (0 for none). The
// logarithms are summed in ascending order of the values, so the result
// does not depend on the order concurrent jobs collected them in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range sortedCopy(xs) {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// timed is one latency observation: when the operation was due (seconds
// since its phase began) and how long it took (seconds).
type timed struct{ at, dur float64 }

// windowPercentiles splits observations into consecutive one-second
// windows by due time and returns the p-th percentile of each window.
// Reporting the median over windows keeps one stalled second from deciding
// a run's tail.
func windowPercentiles(obs []timed, p float64) []float64 {
	groups := map[int][]float64{}
	for _, o := range obs {
		w := int(o.at)
		groups[w] = append(groups[w], o.dur)
	}
	var per []float64
	for _, g := range groups {
		per = append(per, percentile(sortedCopy(g), p))
	}
	return per
}

// durations returns the dur field of every observation.
func durations(obs []timed) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.dur
	}
	return out
}
