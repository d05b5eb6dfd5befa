package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (the R-7 / NumPy default). xs need
// not be sorted and is not modified. +Inf samples (failed operations,
// which miss any latency limit) sort last. An empty slice gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	f := h - float64(lo)
	if f == 0 || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + f*(s[lo+1]-s[lo]) // +Inf when s[lo+1] is a failed sample
}

// quartiles returns the 25th, 50th and 75th percentiles of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, 25), sortedPercentile(s, 50), sortedPercentile(s, 75)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
