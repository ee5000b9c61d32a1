package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := sorted(xs)
	m := len(ys) / 2
	if len(ys)%2 == 1 {
		return ys[m]
	}
	return (ys[m-1] + ys[m]) / 2
}

// quartiles returns the first quartile, the median and the third quartile of
// xs by the "exclusive" method of Python's statistics.quantiles(xs, n=4) —
// the rule the benchmark's spread check uses — so a quartile printed here
// reads the same as one computed from the result files in Python, including
// its extrapolation beyond the data for tiny samples. One value yields
// itself three times; an empty slice yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	ys := sorted(xs)
	ld := len(ys)
	cut := func(i int) float64 {
		m := i * (ld + 1)
		j := min(max(m/4, 1), ld-1)
		delta := float64(m - 4*j)
		return (ys[j-1]*(4-delta) + ys[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
