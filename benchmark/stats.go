package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two for an even
// count). A run's value for every timing metric is the median over its
// windows, never one pooled figure: interference on a shared box is bursty
// and one-sided, so a pooled mean inherits every burst (README rule 3).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method, positions
// (n+1)·k/4), so the spread printed here is the number the acceptance check
// computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(n+1) * float64(k) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// beyond is how many samples must lie past a percentile for it to be
// reported (choosing-metrics guide, section 1).
const beyond = 10

// tailPercentile returns the highest percentile, capped at 0.99, that still
// has `beyond` samples beyond it among n samples, and whether any percentile
// above the median qualifies. 1 000 samples give p99; 40 windows give p75.
func tailPercentile(n int) (p float64, ok bool) {
	if n < 2*beyond+1 {
		return 0, false
	}
	p = 1 - float64(beyond)/float64(n)
	if p > 0.99 {
		p = 0.99
	}
	return p, true
}

// worseBy returns by what share of base the value cur is worse than base,
// given the metric's direction; negative when cur is better.
func worseBy(base, cur float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// withinBound reports whether cur is no worse than base by more than bound.
func withinBound(base, cur, bound float64, higherIsBetter bool) bool {
	return worseBy(base, cur, higherIsBetter) <= bound
}
