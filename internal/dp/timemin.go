package dp

import (
	"fmt"
	"math"

	"ecosched/internal/job"
	"ecosched/internal/sim"
)

// MinimizeTimeDense solves min T(s̄) subject to C(s̄) ≤ budget exactly with
// the dense-table backward run. It is the reference oracle for the sparse
// frontier engine (see frontier.go and MinimizeTime).
//
// Rather than discretizing the continuous money axis, it runs the backward
// run of Eq. (1) over the integral time axis — computing, for every total
// time T, the minimum achievable cost f(T) — and returns the plan at the
// smallest T with f(T) ≤ budget. Time is native ticks, so no rounding is
// involved; in particular a budget that is exactly attainable (B* from
// Eq. (3) with a single combination) is correctly feasible.
func MinimizeTimeDense(batch *job.Batch, alts Alternatives, budget sim.Money) (*Plan, error) {
	lists, err := collect(batch, alts)
	if err != nil {
		return nil, err
	}
	if budget < 0 || !budget.IsFinite() {
		return nil, &ErrInfeasible{Problem: "cost-constrained selection", Limit: "invalid budget"}
	}
	// The time axis never needs to exceed the sum of per-job maxima.
	var tMax sim.Duration
	for _, ws := range lists {
		var m sim.Duration
		for _, w := range ws {
			if w.Length() > m {
				m = w.Length()
			}
		}
		tMax += m
	}
	f, choice := costTable(lists, int(tMax))
	// Smallest feasible total time: first T whose min cost fits the
	// budget. f is non-increasing in T, but a plain scan is clearer and
	// the axis is short.
	for t := 0; t <= int(tMax); t++ {
		if !math.IsNaN(f[0][t]) && sim.Money(f[0][t]).LessEq(budget) {
			return recover(batch, lists, choice, t), nil
		}
	}
	return nil, &ErrInfeasible{Problem: "cost-constrained selection", Limit: fmt.Sprintf("B* = %v", budget)}
}

// Limits bundles the batch-level limits derived from the found alternatives:
// the time quota T* of Eq. (2) and the VO budget B* of Eq. (3).
type Limits struct {
	Quota  sim.Duration
	Budget sim.Money
}

// ComputeLimitsDense derives T* and B* with the dense-table oracle,
// following the paper's order: Eq. (2) first, then Eq. (3) as the maximal
// owner income under T*. The frontier-backed ComputeLimits is the production
// path; this one exists for differential testing.
func ComputeLimitsDense(batch *job.Batch, alts Alternatives) (Limits, error) {
	quota, err := TimeQuota(batch, alts)
	if err != nil {
		return Limits{}, err
	}
	budget, _, err := MaxIncomeDense(batch, alts, quota)
	if err != nil {
		return Limits{}, fmt.Errorf("dp: deriving B* from T*=%v: %w", quota, err)
	}
	return Limits{Quota: quota, Budget: budget}, nil
}
