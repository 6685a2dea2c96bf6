package dp

import (
	"fmt"
	"math"

	"ecosched/internal/job"
)

// This file implements the multi-criteria side of the model (Section 2: "in
// the general case … it is necessary to use a vector of criteria, for
// example ⟨C(s̄), D(s̄), T(s̄), I(s̄)⟩"): the exact Pareto frontier of
// (time, cost) plans, read off the sparse engine's lower frontier, plus a
// weighted-sum selector on top of it. D and I are affine in C and T given the
// limits, so the (T, C) frontier carries the full four-component vector.

// ParetoFront computes every Pareto-optimal (total time, total cost)
// combination of alternatives, one plan per frontier point, ordered by
// increasing time (hence decreasing cost). It is the stage-0 minimize-cost
// frontier of NewFrontier's backward run, each point expanded to its plan
// with the same canonical representative MinimizeTime and MinimizeCost pick.
func ParetoFront(batch *job.Batch, alts Alternatives) ([]*Plan, error) {
	f, err := NewFrontier(batch, alts)
	if err != nil {
		return nil, err
	}
	plans := make([]*Plan, 0, len(f.lo[0]))
	for _, st := range f.lo[0] {
		plans = append(plans, f.plan(f.lo, st))
	}
	return plans, nil
}

// WeightedSum picks the frontier plan minimizing
// wTime·T(s̄) + wCost·C(s̄). Weights must be finite, non-negative and not both
// zero.
func WeightedSum(batch *job.Batch, alts Alternatives, wTime, wCost float64) (*Plan, error) {
	if !validWeight(wTime) || !validWeight(wCost) || (wTime == 0 && wCost == 0) {
		return nil, fmt.Errorf("dp: invalid weights (%v, %v)", wTime, wCost)
	}
	front, err := ParetoFront(batch, alts)
	if err != nil {
		return nil, err
	}
	var best *Plan
	bestVal := math.Inf(1)
	for _, p := range front {
		v := wTime*float64(p.TotalTime) + wCost*float64(p.TotalCost)
		if v < bestVal {
			bestVal = v
			best = p
		}
	}
	if best == nil {
		return nil, &ErrInfeasible{Problem: "weighted selection", Limit: "empty frontier"}
	}
	return best, nil
}

// validWeight reports whether w is a usable criterion weight: finite and
// non-negative (NaN fails both comparisons).
func validWeight(w float64) bool {
	return w >= 0 && !math.IsInf(w, 1)
}

// FrontierVectors evaluates the full ⟨C, D, T, I⟩ vector for every frontier
// plan against the given limits.
func FrontierVectors(plans []*Plan, limits Limits) []Vector {
	out := make([]Vector, 0, len(plans))
	for _, p := range plans {
		out = append(out, CriteriaVector(p, limits.Budget, limits.Quota))
	}
	return out
}
