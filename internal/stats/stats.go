// Package stats provides the small statistical toolkit the experiment
// harness reports with: online mean/variance accumulators, paired series,
// and plain-text tables. Everything is stdlib-only and
// deterministic.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean, and variance in one pass (Welford's
// algorithm), plus min and max. The zero value is an empty accumulator.
type Online struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Mean returns the sample mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (0 when n < 2).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest sample (0 when empty).
func (o *Online) Min() float64 {
	if o.n == 0 {
		return 0
	}
	return o.min
}

// Max returns the largest sample (0 when empty).
func (o *Online) Max() float64 {
	if o.n == 0 {
		return 0
	}
	return o.max
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return 1.96 * o.Std() / math.Sqrt(float64(o.n))
}

// String summarizes the accumulator.
func (o *Online) String() string {
	return fmt.Sprintf("n=%d mean=%.2f±%.2f std=%.2f min=%.2f max=%.2f",
		o.n, o.Mean(), o.CI95(), o.Std(), o.Min(), o.Max())
}

// Series is an ordered sample sequence, used for the per-experiment curves
// of Fig. 5.
type Series struct {
	Name   string
	Values []float64
}

// Add appends a value.
func (s *Series) Add(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// FractionBelow returns the fraction of positions where s is strictly below
// other (both truncated to the common length). Fig. 5's claim — AMP beats
// ALP "in every single experiment" — is this fraction evaluated over the
// first 300 points.
func (s *Series) FractionBelow(other *Series) float64 {
	n := len(s.Values)
	if len(other.Values) < n {
		n = len(other.Values)
	}
	if n == 0 {
		return 0
	}
	var below int
	for i := 0; i < n; i++ {
		if s.Values[i] < other.Values[i] {
			below++
		}
	}
	return float64(below) / float64(n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples using the
// nearest-rank method. It sorts a copy.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	return cp[idx]
}

// LogLogSlope fits the growth exponent of y against x by least squares on
// the log-log points: slope ≈ 1 means linear growth, ≈ 2 quadratic. Pairs
// with non-positive coordinates are skipped; fewer than two usable points
// return 0.
func LogLogSlope(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var lx, ly []float64
	for i := 0; i < n; i++ {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return 0
	}
	var sx, sy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
	}
	mx, my := sx/float64(len(lx)), sy/float64(len(ly))
	var num, den float64
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
