package main

import (
	"fmt"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile for it
// to be reported.
const minTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank pct-th percentile (pct in 1..99).
// It refuses, with an error, unless at least minTail samples lie
// beyond the rank it returns.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	rank := (pct*n + 99) / 100 // ceil(pct*n/100)
	if n-rank < minTail {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, need %d", pct, n, n-rank, minTail)
	}
	return sorted(xs)[rank-1], nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median (nearest-rank quartiles).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(p int) float64 { return s[(p*len(s)+99)/100-1] }
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q(75) - q(25)) / m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
