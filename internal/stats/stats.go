// Package stats provides the small statistical toolkit the PARCEL evaluation
// harness needs: medians, percentiles, empirical CDFs, Pearson correlation,
// and coefficient of variation. All functions are deterministic and operate
// on float64 slices without mutating their inputs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs. It panics on an empty slice because a
// median of nothing is a caller bug, not a recoverable condition.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks (the same method as numpy's default).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0, 1]
}

// CDF returns the empirical cumulative distribution of xs as sorted step
// points. The result has one point per input value; P at the last point is 1.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	points := make([]CDFPoint, len(sorted))
	n := float64(len(sorted))
	for i, x := range sorted {
		points[i] = CDFPoint{X: x, P: float64(i+1) / n}
	}
	return points
}

// CDFAt evaluates the empirical CDF of xs at value v: the fraction of samples
// <= v.
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var count int
	for _, x := range xs {
		if x <= v {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics if the slices differ in length or have fewer than two points,
// and returns 0 when either input has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson inputs differ in length")
	}
	if len(xs) < 2 {
		panic("stats: Pearson needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
