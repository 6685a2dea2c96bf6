package main

import (
	"math"

	"ecosched/internal/stats"
)

// percentile is the p-quantile (0 ≤ p ≤ 1) by nearest rank; 0 for an empty
// sample.
func percentile(xs []float64, p float64) float64 { return stats.Quantile(xs, p) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median — the run-to-run noise figure bounds are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return math.Abs((percentile(xs, 0.75) - percentile(xs, 0.25)) / m)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
