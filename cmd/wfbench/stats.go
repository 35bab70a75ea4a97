package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile is the p-th quantile of xs (0 <= p <= 1), interpolating
// linearly between the two nearest ranks, or 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	h := p * float64(len(s)-1)
	j := int(h)
	if j+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[j] + (h-float64(j))*(s[j+1]-s[j])
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailOf is the highest percentile of xs with at least ten samples beyond it:
// the value with exactly ten larger samples, once there are more than twenty.
// With twenty or fewer samples no percentile above the median has ten beyond
// it, and tailOf is 0.
func tailOf(xs []float64) float64 {
	n := len(xs)
	if n <= 20 {
		return 0
	}
	return sorted(xs)[n-11]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same method as Python's statistics.quantiles(xs, n=4) (exclusive),
// which is how the benchmark's stability is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(math.Floor(h))
		delta := h - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

// geomean is the geometric mean of positive values, or 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// lptMakespan is the finish time of the longest-processing-time-first
// schedule of jobs on m identical machines: each job, longest first, goes to
// the machine that frees up earliest.
func lptMakespan(jobs []float64, m int) float64 {
	s := sorted(jobs)
	load := make([]float64, m)
	for i := len(s) - 1; i >= 0; i-- {
		least := 0
		for k := range load {
			if load[k] < load[least] {
				least = k
			}
		}
		load[least] += s[i]
	}
	return slices.Max(load)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
