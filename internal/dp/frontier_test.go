package dp

import (
	"errors"
	"fmt"
	"testing"

	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// samePlan asserts two plans select the identical windows (pointer identity,
// choice for choice) and carry identical criteria — the strongest possible
// equivalence: not just the same optimum, but the same committed schedule.
func samePlan(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	if a.TotalTime != b.TotalTime || a.TotalCost != b.TotalCost {
		t.Fatalf("%s: criteria diverge: (%v, %v) vs (%v, %v)",
			label, a.TotalTime, a.TotalCost, b.TotalTime, b.TotalCost)
	}
	if len(a.Choices) != len(b.Choices) {
		t.Fatalf("%s: plan sizes diverge: %d vs %d", label, len(a.Choices), len(b.Choices))
	}
	for i := range a.Choices {
		if a.Choices[i].Window != b.Choices[i].Window {
			t.Fatalf("%s: job %d chose different windows: %v vs %v",
				label, i, a.Choices[i].Window, b.Choices[i].Window)
		}
	}
}

// randomInstance draws a batch with random alternative sets. Prices are
// drawn from a small integer set so exact cost ties across distinct
// durations occur regularly — the regime where tie-breaking discipline is
// actually exercised.
func randomInstance(seed uint64) (*Frontier, Alternatives, [][]*slot.Window, *sim.RNG) {
	rng := sim.NewRNG(seed)
	n := rng.IntBetween(1, 6)
	batch := synthBatch(n)
	alts := Alternatives{}
	lists := make([][]*slot.Window, n)
	for i := 0; i < n; i++ {
		l := rng.IntBetween(1, 6)
		ws := make([]*slot.Window, l)
		for a := 0; a < l; a++ {
			length := sim.Duration(rng.IntBetween(5, 90))
			price := sim.Money(rng.IntBetween(1, 4))
			ws[a] = synthWindow(jobName(i), 0, length, price)
		}
		alts[batch.At(i).Name] = ws
		lists[i] = ws
	}
	fr, err := NewFrontier(batch, alts)
	if err != nil {
		panic(err)
	}
	return fr, alts, lists, rng
}

// TestFrontierMatchesDenseDifferential is the engine-level equivalence
// proof: over randomized batches, every problem answered by the frontier
// engine returns the byte-identical plan the dense oracle returns — same
// windows, same criteria — and infeasibility verdicts agree.
func TestFrontierMatchesDenseDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		fr, alts, _, rng := randomInstance(seed)
		batch := fr.batch
		budget := sim.Money(rng.IntBetween(10, 600))
		quota := sim.Duration(rng.IntBetween(5, 400))

		fp, ferr := fr.MinimizeTime(budget)
		dpPlan, derr := MinimizeTimeDense(batch, alts, budget)
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("seed %d: MinimizeTime feasibility diverges: %v vs %v", seed, ferr, derr)
		}
		if ferr == nil {
			samePlan(t, fmt.Sprintf("seed %d MinimizeTime", seed), fp, dpPlan)
		}

		fp, ferr = fr.MinimizeCost(quota)
		dpPlan, derr = MinimizeCostDense(batch, alts, quota)
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("seed %d: MinimizeCost feasibility diverges: %v vs %v", seed, ferr, derr)
		}
		if ferr == nil {
			samePlan(t, fmt.Sprintf("seed %d MinimizeCost", seed), fp, dpPlan)
		}

		fIncome, fp, ferr := fr.MaxIncome(quota)
		dIncome, dpPlan, derr := MaxIncomeDense(batch, alts, quota)
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("seed %d: MaxIncome feasibility diverges: %v vs %v", seed, ferr, derr)
		}
		if ferr == nil {
			if fIncome != dIncome {
				t.Fatalf("seed %d: incomes diverge: %v vs %v", seed, fIncome, dIncome)
			}
			samePlan(t, fmt.Sprintf("seed %d MaxIncome", seed), fp, dpPlan)
		}

		fLimits, ferr := fr.Limits()
		dLimits, derr := ComputeLimitsDense(batch, alts)
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("seed %d: limit feasibility diverges: %v vs %v", seed, ferr, derr)
		}
		if ferr == nil && fLimits != dLimits {
			t.Fatalf("seed %d: limits diverge: %+v vs %+v", seed, fLimits, dLimits)
		}
	}
}

// TestFrontierCanonicalTieBreak pins the tie-break contract on a crafted
// instance where several combinations share the optimal cost: both engines
// must return the fastest of the cost-equal plans, selected by the lowest
// alternative index.
func TestFrontierCanonicalTieBreak(t *testing.T) {
	batch := synthBatch(2)
	// job1: two alternatives with identical cost 60 (30×2 vs 60×1) and one
	// expensive fast one; job2: two alternatives with identical cost 40.
	alts := Alternatives{
		"job1": {
			synthWindow("a", 0, 60, 1), // cost 60, slow
			synthWindow("b", 0, 30, 2), // cost 60, fast
			synthWindow("c", 0, 10, 9), // cost 90, fastest
		},
		"job2": {
			synthWindow("d", 0, 40, 1), // cost 40, slow
			synthWindow("e", 0, 20, 2), // cost 40, fast
		},
	}
	fr, err := NewFrontier(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	// Generous quota: min cost 100 is shared by four combinations; the
	// canonical winner is the fastest, (30, 20) at time 50.
	for _, engine := range []struct {
		name string
		run  func() (*Plan, error)
	}{
		{"frontier", func() (*Plan, error) { return fr.MinimizeCost(200) }},
		{"dense", func() (*Plan, error) { return MinimizeCostDense(batch, alts, 200) }},
	} {
		plan, err := engine.run()
		if err != nil {
			t.Fatalf("%s: %v", engine.name, err)
		}
		if plan.TotalTime != 50 || !plan.TotalCost.ApproxEq(100) {
			t.Errorf("%s: got (T=%v, C=%v), want canonical (50, 100)",
				engine.name, plan.TotalTime, plan.TotalCost)
		}
	}
	fp, _ := fr.MinimizeCost(200)
	dpPlan, _ := MinimizeCostDense(batch, alts, 200)
	samePlan(t, "tie-break", fp, dpPlan)
}

// TestFrontierEdgeCases covers the DP corner conditions against both
// engines: a zero quota, a budget sitting exactly on a plan boundary,
// single-alternative jobs, and the infeasible paths of both policies.
func TestFrontierEdgeCases(t *testing.T) {
	t.Run("zero quota infeasible", func(t *testing.T) {
		batch := synthBatch(1)
		alts := Alternatives{"job1": {synthWindow("a", 0, 10, 1)}}
		for _, run := range []func() (*Plan, error){
			func() (*Plan, error) { return MinimizeCost(batch, alts, 0) },
			func() (*Plan, error) { return MinimizeCostDense(batch, alts, 0) },
		} {
			var inf *ErrInfeasible
			if _, err := run(); !errors.As(err, &inf) {
				t.Errorf("zero quota with positive-length windows must be infeasible, got %v", err)
			}
		}
	})
	t.Run("zero quota feasible with zero-length window", func(t *testing.T) {
		batch := synthBatch(1)
		alts := Alternatives{"job1": {synthWindow("a", 0, 0, 3)}}
		fp, ferr := MinimizeCost(batch, alts, 0)
		dpPlan, derr := MinimizeCostDense(batch, alts, 0)
		if ferr != nil || derr != nil {
			t.Fatalf("zero-length window under q=0 must be feasible: %v / %v", ferr, derr)
		}
		samePlan(t, "q=0", fp, dpPlan)
		if fp.TotalTime != 0 {
			t.Errorf("plan time %v under q=0", fp.TotalTime)
		}
	})
	t.Run("boundary-exact budget", func(t *testing.T) {
		// Single combination: B* equals its exact float cost; both engines
		// must accept the boundary.
		batch := synthBatch(2)
		alts := Alternatives{
			"job1": {synthWindow("a", 0, 53, 2.37)},
			"job2": {synthWindow("c", 0, 41, 1.19)},
		}
		limits, err := ComputeLimits(batch, alts)
		if err != nil {
			t.Fatal(err)
		}
		fp, ferr := MinimizeTime(batch, alts, limits.Budget)
		dpPlan, derr := MinimizeTimeDense(batch, alts, limits.Budget)
		if ferr != nil || derr != nil {
			t.Fatalf("boundary-exact budget rejected: %v / %v", ferr, derr)
		}
		samePlan(t, "boundary", fp, dpPlan)
	})
	t.Run("single-alternative jobs", func(t *testing.T) {
		batch := synthBatch(3)
		alts := Alternatives{
			"job1": {synthWindow("a", 0, 20, 2)},
			"job2": {synthWindow("b", 0, 30, 1)},
			"job3": {synthWindow("c", 0, 10, 4)},
		}
		fr, err := NewFrontier(batch, alts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(fr.lo[0]); got != 1 {
			t.Errorf("degenerate instance should keep a single frontier point, has %d", got)
		}
		limits, err := fr.Limits()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fr.MinimizeTime(limits.Budget)
		if err != nil {
			t.Fatal(err)
		}
		dpPlan, err := MinimizeTimeDense(batch, alts, limits.Budget)
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, "single-alt", fp, dpPlan)
	})
	t.Run("infeasible both policies", func(t *testing.T) {
		batch := synthBatch(2)
		alts := Alternatives{
			"job1": {synthWindow("a", 0, 50, 2)},
			"job2": {synthWindow("b", 0, 40, 3)},
		}
		var inf *ErrInfeasible
		if _, err := MinimizeTime(batch, alts, 10); !errors.As(err, &inf) {
			t.Errorf("tiny budget must be infeasible, got %v", err)
		}
		if _, err := MinimizeCost(batch, alts, 10); !errors.As(err, &inf) {
			t.Errorf("tiny quota must be infeasible, got %v", err)
		}
		if _, _, err := maxIncome(batch, alts, 10); !errors.As(err, &inf) {
			t.Errorf("tiny quota must make MaxIncome infeasible, got %v", err)
		}
		if _, err := MinimizeTime(batch, alts, -1); !errors.As(err, &inf) {
			t.Errorf("negative budget must be infeasible, got %v", err)
		}
		if _, err := MinimizeCost(batch, alts, -1); !errors.As(err, &inf) {
			t.Errorf("negative quota must be infeasible, got %v", err)
		}
	})
	t.Run("missing alternatives", func(t *testing.T) {
		batch := synthBatch(2)
		alts := Alternatives{"job1": {synthWindow("a", 0, 10, 1)}}
		if _, err := NewFrontier(batch, alts); err == nil {
			t.Error("missing alternatives accepted")
		}
	})
}

// TestFrontierDominancePruning checks the structural claim behind the
// asymptotic win: the kept state count is bounded by the distinct trade-off
// points, not by the time quota.
func TestFrontierDominancePruning(t *testing.T) {
	batch := synthBatch(2)
	// Durations in the thousands: the dense tables hold ~n·q ≈ 2·7000
	// entries; the frontier keeps only the distinct trade-offs (≤ 4 per
	// stage per frontier kind here).
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 4000, 1), synthWindow("b", 0, 3000, 2)},
		"job2": {synthWindow("c", 0, 3500, 1), synthWindow("d", 0, 2500, 3)},
	}
	fr, err := NewFrontier(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Size() > 32 {
		t.Errorf("frontier kept %d states for a 2×2 instance; pruning is broken", fr.Size())
	}
	limits, err := fr.Limits()
	if err != nil {
		t.Fatal(err)
	}
	dLimits, err := ComputeLimitsDense(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if limits != dLimits {
		t.Errorf("limits diverge on large-duration instance: %+v vs %+v", limits, dLimits)
	}
	fp, err := fr.MinimizeTime(limits.Budget)
	if err != nil {
		t.Fatal(err)
	}
	dpPlan, err := MinimizeTimeDense(batch, alts, limits.Budget)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "large-duration", fp, dpPlan)
}
