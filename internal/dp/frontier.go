package dp

import (
	"fmt"
	"sort"

	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// This file is the production implementation of the Eq. (1) backward run: a
// sparse, dominance-pruned dynamic program over (total time, total cost)
// points instead of the dense O(n·q) tables of dp.go/timemin.go. For each
// job suffix i..n-1 it keeps only the non-dominated trade-off points with
// back-pointers, so cost and memory scale with the number of genuinely
// distinct (time, cost) trade-offs rather than with the time quota q.
// MinimizeTime, MinimizeCost, and MaxIncome are all answered from the one
// shared structure — a single backward pass per scheduling iteration where
// the dense path built two independent tables (one for B*, one for the
// policy run).
//
// Equivalence with the dense oracle (cf. Buyya et al.'s cost-time DP): both
// engines optimize over the same finite plan set, accumulate each plan's
// cost as the identical right-to-left float sum, and break ties canonically
// — optimal value first, then minimal time (minimal cost for MinimizeTime),
// then lexicographically smallest alternative indices. The dense recovery
// walk realizes that tie-break by starting from the smallest quota
// achieving the optimum; the frontier realizes it by keeping, per (time,
// cost) value, the representative with the smallest choice index at every
// stage. The differential tests in frontier_test.go check plan identity
// choice-for-choice, and internal/metasched's differential suite checks
// byte-identical session transcripts.

// fpoint is one non-dominated (time, cost) state of a job suffix. choice is
// the alternative index of the stage's job; next indexes the tail state in
// the following stage's frontier of the same kind.
type fpoint struct {
	time   sim.Duration
	cost   sim.Money
	choice int32
	next   int32
}

// Frontier is the sparse backward run over a batch's alternatives. Build it
// once per scheduling iteration with NewFrontier, then answer any of the
// three optimization problems (and the limit derivation) from it.
type Frontier struct {
	batch *job.Batch
	lists [][]*slot.Window
	// lo[i] is the minimize-cost frontier of jobs i..n-1: time strictly
	// increasing, cost strictly decreasing. hi[i] is the maximize-cost
	// (owner-income) frontier: time and cost both strictly increasing.
	// lo[n] and hi[n] hold the single empty tail.
	lo, hi [][]fpoint
	// pruned counts the candidate (time, cost) points dropped by dominance
	// (or duplicate collapse) across the whole backward pass — the work the
	// sparse engine saves relative to keeping the full cross product. Kept
	// as a plain int64 so the accounting costs one addition per merge even
	// with observability off; Observe exports it.
	pruned int64
}

// NewFrontier runs the shared sparse backward pass of Eq. (1) for the
// batch's alternatives. It fails only when a job has no alternatives.
func NewFrontier(batch *job.Batch, alts Alternatives) (*Frontier, error) {
	lists, err := collect(batch, alts)
	if err != nil {
		return nil, err
	}
	n := len(lists)
	f := &Frontier{
		batch: batch,
		lists: lists,
		lo:    make([][]fpoint, n+1),
		hi:    make([][]fpoint, n+1),
	}
	empty := []fpoint{{choice: -1, next: -1}}
	f.lo[n], f.hi[n] = empty, empty
	var buf stageBuf
	for i := n - 1; i >= 0; i-- {
		f.lo[i] = buildStage(lists[i], f.lo[i+1], false, &buf, &f.pruned)
		f.hi[i] = buildStage(lists[i], f.hi[i+1], true, &buf, &f.pruned)
	}
	return f, nil
}

// stageBuf holds the two scratch slices buildStage ping-pongs between; the
// backing arrays are reused across stages and frontier kinds.
type stageBuf struct {
	a, b []fpoint
}

// buildStage computes one stage's frontier by left-folding the alternatives:
// for each choice a (ascending), the tail frontier shifted by that window's
// (length, cost) is itself a sorted frontier, so a linear skyline merge with
// the accumulator replaces a global sort over the full cross product. The
// fold yields exactly the frontier a sort by (time, cost, choice) followed by
// a dominance sweep would: dominated points fall out whenever the merge sees
// a better one, and on (time, cost) ties the accumulator's point — which
// carries the smaller choice index — wins, preserving the canonical
// lexicographically-smallest representative.
func buildStage(ws []*slot.Window, tail []fpoint, upper bool, buf *stageBuf, pruned *int64) []fpoint {
	acc, out := buf.a[:0], buf.b[:0]
	for a, w := range ws {
		out = mergeShifted(acc, tail, w.Length(), w.Cost(), int32(a), upper, out)
		// Every merge sees len(acc)+len(tail) candidate points and keeps
		// len(out): the difference is exactly the dominance-pruned work.
		*pruned += int64(len(acc) + len(tail) - len(out))
		acc, out = out, acc
	}
	buf.a, buf.b = acc, out
	result := make([]fpoint, len(acc))
	copy(result, acc)
	return result
}

// mergeShifted merges the pruned accumulator with the tail frontier shifted
// by (dt, dc) — choice a's candidates — writing the pruned union to out[:0].
// The cost sum dc + tail.cost is the same right-to-left float addition the
// dense tables perform, so identical plans produce bit-identical criteria in
// both engines; dominance comparisons are exact for the same reason.
func mergeShifted(acc, tail []fpoint, dt sim.Duration, dc sim.Money, a int32, upper bool, out []fpoint) []fpoint {
	out = out[:0]
	i, j := 0, 0
	for i < len(acc) || j < len(tail) {
		var p fpoint
		switch {
		case i == len(acc):
			p = fpoint{time: dt + tail[j].time, cost: dc + tail[j].cost, choice: a, next: int32(j)}
			j++
		case j == len(tail):
			p = acc[i]
			i++
		default:
			q := fpoint{time: dt + tail[j].time, cost: dc + tail[j].cost, choice: a, next: int32(j)}
			if mergeBefore(acc[i], q, upper) {
				p = acc[i]
				i++
			} else {
				p = q
				j++
			}
		}
		// Lower frontier: cost strictly decreasing along increasing time.
		// Upper frontier: cost strictly increasing. Anything else is
		// dominated by (or a higher-choice duplicate of) the last kept
		// point.
		if len(out) == 0 ||
			(!upper && p.cost < out[len(out)-1].cost) ||
			(upper && p.cost > out[len(out)-1].cost) {
			out = append(out, p)
		}
	}
	return out
}

// mergeBefore orders frontier points canonically: time ascending, then cost
// (ascending on the lower frontier, descending on the upper so the larger
// income comes first), then choice ascending — the same key the dense
// recovery walk's first-index argmin realizes.
func mergeBefore(x, y fpoint, upper bool) bool {
	if x.time != y.time {
		return x.time < y.time
	}
	if x.cost != y.cost {
		if upper {
			return x.cost > y.cost
		}
		return x.cost < y.cost
	}
	return x.choice < y.choice
}

// Size returns the total number of frontier points kept across all stages
// and both frontiers — the engine's actual state count, the sparse analogue
// of the dense tables' n·q entries.
func (f *Frontier) Size() int {
	var total int
	for i := range f.lo {
		total += len(f.lo[i]) + len(f.hi[i])
	}
	return total
}

// DominancePruned returns the number of candidate (time, cost) points the
// backward pass dropped as dominated or duplicate — the sparse engine's
// saved work, exported for observability.
func (f *Frontier) DominancePruned() int64 { return f.pruned }

// Stages returns the number of DP stages (batch jobs) of the backward pass.
func (f *Frontier) Stages() int { return len(f.lists) }

// FrontierMetrics holds the pre-resolved instruments of the sparse DP
// engine. Resolve once with NewFrontierMetrics and feed every built frontier
// to Observe. A holder built from a nil registry holds nil instruments and
// costs nothing; Observe treats a nil holder as that one.
type FrontierMetrics struct {
	// Builds counts backward passes (one per scheduling iteration on the
	// production path), Stages the DP stages folded across them.
	Builds *metrics.Counter
	Stages *metrics.Counter
	// PointsKept and DominancePruned total the trade-off points surviving
	// versus dropped by the skyline merges — together they quantify how
	// sparse the instance actually was.
	PointsKept      *metrics.Counter
	DominancePruned *metrics.Counter
	// Size is the distribution of per-build frontier sizes (total points
	// kept across all stages, Frontier.Size).
	Size *metrics.Histogram
}

// disabledFrontierMetrics is the holder of a frontier build without
// instruments.
var disabledFrontierMetrics FrontierMetrics

// NewFrontierMetrics resolves the sparse-engine instruments under the
// "dp/frontier/" prefix. A nil registry returns the disabled holder.
func NewFrontierMetrics(r *metrics.Registry) *FrontierMetrics {
	if r == nil {
		return &disabledFrontierMetrics
	}
	return &FrontierMetrics{
		Builds:          r.Counter("dp/frontier/builds_total"),
		Stages:          r.Counter("dp/frontier/stages_total"),
		PointsKept:      r.Counter("dp/frontier/points_kept_total"),
		DominancePruned: r.Counter("dp/frontier/dominance_pruned_total"),
		Size:            r.Histogram("dp/frontier/size_points", metrics.ExpBuckets(16, 4, 7)),
	}
}

// Observe records one built frontier's accounting into m (nil: the
// disabled holder). It never mutates the frontier, so instrumented and plain
// runs compute identical plans.
func (f *Frontier) Observe(m *FrontierMetrics) {
	if m == nil {
		m = &disabledFrontierMetrics
	}
	m.Builds.Inc()
	m.Stages.Add(int64(f.Stages()))
	size := int64(f.Size())
	m.PointsKept.Add(size)
	m.DominancePruned.Add(f.pruned)
	m.Size.Observe(size)
}

// plan reconstructs the combination behind a stage-0 frontier point by
// walking its back-pointers, accumulating the criteria forward exactly like
// the dense recovery walk.
func (f *Frontier) plan(stages [][]fpoint, st fpoint) *Plan {
	n := len(f.lists)
	plan := &Plan{Choices: make([]Choice, 0, n)}
	cur := st
	for i := 0; i < n; i++ {
		w := f.lists[i][cur.choice]
		plan.Choices = append(plan.Choices, Choice{Job: f.batch.At(i), Window: w})
		plan.TotalTime += w.Length()
		plan.TotalCost += w.Cost()
		if i+1 < n {
			cur = stages[i+1][cur.next]
		}
	}
	return plan
}

// MinimizeTime solves min T(s̄) subject to C(s̄) ≤ budget: the first (fastest)
// lower-frontier point whose cost fits the budget. Costs strictly decrease
// along the frontier, so that point is the unique canonical optimum.
func (f *Frontier) MinimizeTime(budget sim.Money) (*Plan, error) {
	if budget < 0 || !budget.IsFinite() {
		return nil, &ErrInfeasible{Problem: "cost-constrained selection", Limit: "invalid budget"}
	}
	front := f.lo[0]
	// Costs are strictly decreasing: binary-search the first affordable
	// point. LessEq is the same ε-tolerant comparison the dense scan uses.
	i := sort.Search(len(front), func(k int) bool { return front[k].cost.LessEq(budget) })
	if i == len(front) {
		return nil, &ErrInfeasible{Problem: "cost-constrained selection", Limit: fmt.Sprintf("B* = %v", budget)}
	}
	return f.plan(f.lo, front[i]), nil
}

// MinimizeCost solves min C(s̄) subject to T(s̄) ≤ quota: the last (slowest)
// lower-frontier point within the quota, which carries the minimal cost and,
// among cost-equal plans, the minimal time.
func (f *Frontier) MinimizeCost(quota sim.Duration) (*Plan, error) {
	if quota < 0 {
		return nil, &ErrInfeasible{Problem: "time-constrained selection", Limit: "negative quota"}
	}
	front := f.lo[0]
	i := sort.Search(len(front), func(k int) bool { return front[k].time > quota })
	if i == 0 {
		return nil, &ErrInfeasible{Problem: "time-constrained selection", Limit: fmt.Sprintf("T* = %d", quota)}
	}
	return f.plan(f.lo, front[i-1]), nil
}

// MaxIncome computes B* per Eq. (3): the maximal total cost achievable
// within the quota — the last upper-frontier point within it — returning the
// income and the witnessing plan.
func (f *Frontier) MaxIncome(quota sim.Duration) (sim.Money, *Plan, error) {
	if quota < 0 {
		return 0, nil, &ErrInfeasible{Problem: "time-constrained selection", Limit: "negative quota"}
	}
	front := f.hi[0]
	i := sort.Search(len(front), func(k int) bool { return front[k].time > quota })
	if i == 0 {
		return 0, nil, &ErrInfeasible{Problem: "time-constrained selection", Limit: fmt.Sprintf("T* = %d", quota)}
	}
	plan := f.plan(f.hi, front[i-1])
	return plan.TotalCost, plan, nil
}

// Limits derives T* (Eq. 2) and B* (Eq. 3) from the already-built frontier:
// the quota needs only the alternative lists, the budget one upper-frontier
// lookup. The error wraps ErrInfeasible exactly like ComputeLimits.
func (f *Frontier) Limits() (Limits, error) {
	quota := quotaOf(f.lists)
	budget, _, err := f.MaxIncome(quota)
	if err != nil {
		return Limits{}, fmt.Errorf("dp: deriving B* from T*=%v: %w", quota, err)
	}
	return Limits{Quota: quota, Budget: budget}, nil
}

// MinimizeTime solves min T(s̄) subject to C(s̄) ≤ budget with the sparse
// frontier engine. The dense oracle is MinimizeTimeDense.
func MinimizeTime(batch *job.Batch, alts Alternatives, budget sim.Money) (*Plan, error) {
	f, err := NewFrontier(batch, alts)
	if err != nil {
		return nil, err
	}
	return f.MinimizeTime(budget)
}

// MinimizeCost solves min C(s̄) subject to T(s̄) ≤ quota with the sparse
// frontier engine. The dense oracle is MinimizeCostDense.
func MinimizeCost(batch *job.Batch, alts Alternatives, quota sim.Duration) (*Plan, error) {
	f, err := NewFrontier(batch, alts)
	if err != nil {
		return nil, err
	}
	return f.MinimizeCost(quota)
}

// ComputeLimits derives T* and B* for a batch from its alternatives with the
// sparse frontier engine, following the paper's order: Eq. (2) first, then
// Eq. (3) as the maximal owner income under T*. The dense oracle is
// ComputeLimitsDense.
func ComputeLimits(batch *job.Batch, alts Alternatives) (Limits, error) {
	f, err := NewFrontier(batch, alts)
	if err != nil {
		return Limits{}, err
	}
	return f.Limits()
}
