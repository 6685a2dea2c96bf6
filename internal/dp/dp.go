// Package dp implements the second stage of the paper's scheduling scheme:
// choosing, per job, one of the execution alternatives found by the slot
// search, so that a batch-wide criterion is optimized under a batch-wide
// constraint. The optimizer is the dynamic-programming "backward run" of
// Eq. (1):
//
//	f_i(Z_i) = extr{ g_i(s̄_i) + f_{i+1}(Z_i − z_i(s̄_i)) },  f_{n+1} ≡ 0
//
// with g the criterion contribution (cost c_i or time t_i) and z the
// constrained quantity (time or cost). Two concrete problems are exposed:
//
//   - MinimizeTime: min T(s̄) subject to C(s̄) ≤ B* (VO budget),
//   - MinimizeCost: min C(s̄) subject to T(s̄) ≤ T* (total occupancy quota),
//
// plus the limit constructors of Eq. (2) (TimeQuota → T*) and Eq. (3)
// (Frontier.MaxIncome → B*).
//
// Time is integral (ticks) and money continuous, and no axis is
// discretized: the production engine (frontier.go) keeps exact (time, cost)
// points, and the dense oracles index their tables by total time and carry
// cost as a float — the cost-constrained MinimizeTimeDense computes the
// minimum cost of every total time.
package dp

import (
	"fmt"
	"math"

	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// Choice is one job's selected alternative in a plan.
type Choice struct {
	Job    *job.Job
	Window *slot.Window
}

// Plan is a complete selection s̄ = (s̄_1, ..., s̄_n): exactly one alternative
// per batch job, with the two batch criteria precomputed.
type Plan struct {
	Choices []Choice
	// TotalTime is T(s̄) = Σ t_i(s̄_i), the summed job execution times.
	TotalTime sim.Duration
	// TotalCost is C(s̄) = Σ c_i(s̄_i), the summed usage costs.
	TotalCost sim.Money
}

// AverageTime returns the mean job execution time of the plan.
func (p *Plan) AverageTime() float64 {
	if len(p.Choices) == 0 {
		return 0
	}
	return float64(p.TotalTime) / float64(len(p.Choices))
}

// AverageCost returns the mean job execution cost of the plan.
func (p *Plan) AverageCost() float64 {
	if len(p.Choices) == 0 {
		return 0
	}
	return float64(p.TotalCost) / float64(len(p.Choices))
}

// Vector is the criteria vector ⟨C(s̄), D(s̄), T(s̄), I(s̄)⟩ from Section 2,
// where D = B* − C is the unspent budget and I = T* − T the unused time
// quota.
type Vector struct {
	Cost        sim.Money
	BudgetSlack sim.Money
	Time        sim.Duration
	TimeSlack   sim.Duration
}

// CriteriaVector evaluates the plan against the limits B* and T*.
func CriteriaVector(p *Plan, budget sim.Money, quota sim.Duration) Vector {
	return Vector{
		Cost:        p.TotalCost,
		BudgetSlack: budget - p.TotalCost,
		Time:        p.TotalTime,
		TimeSlack:   quota - p.TotalTime,
	}
}

// String renders the vector.
func (v Vector) String() string {
	return fmt.Sprintf("<C=%v D=%v T=%v I=%v>", v.Cost, v.BudgetSlack, v.Time, v.TimeSlack)
}

// Alternatives groups, per job name, the windows available to the optimizer.
// It is the shape produced by alloc.SearchResult.Alternatives.
type Alternatives map[string][]*slot.Window

// ErrInfeasible is returned when no combination of alternatives satisfies
// the constraint. The scheduling iteration then postpones the batch (the
// paper's simulation drops such experiments from its statistics).
type ErrInfeasible struct {
	Problem string
	Limit   string
}

// Error implements error.
func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("dp: %s infeasible under %s", e.Problem, e.Limit)
}

// collect gathers the per-job window lists in batch order, failing when a
// job has no alternatives.
func collect(batch *job.Batch, alts Alternatives) ([][]*slot.Window, error) {
	out := make([][]*slot.Window, 0, batch.Len())
	for _, j := range batch.Jobs() {
		ws := alts[j.Name]
		if len(ws) == 0 {
			return nil, fmt.Errorf("dp: job %s has no alternatives", j.Name)
		}
		out = append(out, ws)
	}
	return out, nil
}

// TimeQuota computes T* per Eq. (2): for each job, the floored mean duration
// of its l_i alternatives, ⌊(Σ_a t_i(s̄_a))/l_i⌋, summed over the batch. It
// balances the global (user) and local (owner) job flows: the quota grows
// with what a typical, not best-case, selection would occupy.
//
// Note on the formula: read literally, Eq. (2) floors each term t_a/l_i
// before summing. That reading makes the quota strictly smaller than every
// achievable batch time whenever a job's alternatives all share one duration
// (any uniform-performance environment, e.g. the Section 4 example), i.e.
// the scheme's own second phase would always be infeasible. We therefore
// floor the per-job mean instead, which preserves the formula's intent and
// guarantees T* ≥ Σ_i min_a t_a, so a quota-feasible combination always
// exists (see DESIGN.md, substitutions).
func TimeQuota(batch *job.Batch, alts Alternatives) (sim.Duration, error) {
	lists, err := collect(batch, alts)
	if err != nil {
		return 0, err
	}
	return quotaOf(lists), nil
}

// quotaOf is Eq. (2) over already-collected lists.
func quotaOf(lists [][]*slot.Window) sim.Duration {
	var quota sim.Duration
	for _, ws := range lists {
		var sum sim.Duration
		for _, w := range ws {
			sum += w.Length()
		}
		quota += sum / sim.Duration(len(ws)) // floored per-job mean
	}
	return quota
}

// MaxIncomeDense computes B* per Eq. (3) with the dense-table backward run:
// the maximal total cost (resource-owner income) achievable by any
// combination whose total time fits the quota. It returns the optimal income
// and the witnessing plan. It is the reference oracle for the sparse
// frontier engine (see frontier.go and Frontier.MaxIncome).
func MaxIncomeDense(batch *job.Batch, alts Alternatives, quota sim.Duration) (sim.Money, *Plan, error) {
	plan, err := runTimeConstrained(batch, alts, quota, maximizeCost)
	if err != nil {
		return 0, nil, err
	}
	return plan.TotalCost, plan, nil
}

// MinimizeCostDense solves min C(s̄) subject to T(s̄) ≤ quota via the dense
// backward run over an integral time grid. It is the reference oracle for
// the sparse frontier engine (see frontier.go and MinimizeCost).
func MinimizeCostDense(batch *job.Batch, alts Alternatives, quota sim.Duration) (*Plan, error) {
	return runTimeConstrained(batch, alts, quota, minimizeCost)
}

type objective int

const (
	minimizeCost objective = iota
	maximizeCost
)

// runTimeConstrained performs the backward run of Eq. (1) with z = time and
// g = cost. States are (job index i, remaining time budget Z_i); the
// recurrence is evaluated for i = n..1 and the plan recovered forward.
func runTimeConstrained(batch *job.Batch, alts Alternatives, quota sim.Duration, obj objective) (*Plan, error) {
	lists, err := collect(batch, alts)
	if err != nil {
		return nil, err
	}
	if quota < 0 {
		return nil, &ErrInfeasible{Problem: "time-constrained selection", Limit: "negative quota"}
	}
	// No combination can take longer than the summed per-job maxima, so a
	// larger quota is equivalent and would only waste table space.
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
	if quota > tMax {
		quota = tMax
	}
	q := int(quota)
	var f [][]float64
	var choice [][]int
	if obj == maximizeCost {
		f, choice = table(lists, q, maximizeCost)
	} else {
		f, choice = costTable(lists, q)
	}
	if choice[0][q] < 0 || math.IsNaN(f[0][q]) {
		return nil, &ErrInfeasible{Problem: "time-constrained selection", Limit: fmt.Sprintf("T* = %d", q)}
	}
	// Canonical tie-break: recover from the smallest quota achieving the
	// optimum, so among cost-equal combinations the fastest one is chosen
	// (and, within the recovery walk, the lexicographically first
	// alternative indices). This makes the dense plan the unique Pareto
	// point the sparse frontier engine produces, so the two implementations
	// agree choice-for-choice, not just on the optimal value. f is monotone
	// in the quota and every plan's cost is a fixed backward float sum, so
	// the equality below is exact, never approximate.
	z := q
	for t := 0; t < q; t++ {
		if !math.IsNaN(f[0][t]) && f[0][t] == f[0][q] {
			z = t
			break
		}
	}
	return recover(batch, lists, choice, z), nil
}

// costTable builds the minimize-cost backward-run table over the integral
// time axis [0, q]: f[i][z] is the minimum cost for jobs i..n-1 with z ticks
// of quota left (NaN = infeasible), choice[i][z] the realizing alternative
// (-1 = infeasible).
func costTable(lists [][]*slot.Window, q int) (f [][]float64, choice [][]int) {
	return table(lists, q, minimizeCost)
}

// table is the shared backward run of Eq. (1) with z = time and g = cost,
// parameterized by the extremum direction.
func table(lists [][]*slot.Window, q int, obj objective) (f [][]float64, choice [][]int) {
	const unset = -1
	n := len(lists)
	f = make([][]float64, n+1)
	choice = make([][]int, n)
	f[n] = make([]float64, q+1) // f_{n+1} ≡ 0
	for i := n - 1; i >= 0; i-- {
		f[i] = make([]float64, q+1)
		choice[i] = make([]int, q+1)
		for z := 0; z <= q; z++ {
			best := math.NaN()
			bestA := unset
			for a, w := range lists[i] {
				t := int(w.Length())
				if t > z {
					continue
				}
				tail := f[i+1][z-t]
				if math.IsNaN(tail) {
					continue
				}
				val := float64(w.Cost()) + tail
				if bestA == unset || better(obj, val, best) {
					best = val
					bestA = a
				}
			}
			f[i][z] = best // NaN marks infeasible states
			choice[i][z] = bestA
		}
	}
	return f, choice
}

// recover walks a choice table forward from time budget z = q, rebuilding
// the plan: Z_{i+1} = Z_i − z_i(s̄_i).
func recover(batch *job.Batch, lists [][]*slot.Window, choice [][]int, q int) *Plan {
	n := len(lists)
	plan := &Plan{Choices: make([]Choice, 0, n)}
	z := q
	for i := 0; i < n; i++ {
		a := choice[i][z]
		w := lists[i][a]
		plan.Choices = append(plan.Choices, Choice{Job: batch.At(i), Window: w})
		plan.TotalTime += w.Length()
		plan.TotalCost += w.Cost()
		z -= int(w.Length())
	}
	return plan
}

func better(obj objective, a, b float64) bool {
	if obj == maximizeCost {
		return a > b
	}
	return a < b
}
