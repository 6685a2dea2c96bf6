package dp

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// synthWindow builds a window with the given start, length, and per-tick
// price on a fresh single node — enough for optimizer tests, which only read
// Length() and Cost().
func synthWindow(name string, start sim.Time, length sim.Duration, price sim.Money) *slot.Window {
	n := &resource.Node{Name: name + "-n", Performance: 1, Price: price}
	src := slot.New(n, start, start.Add(length))
	return &slot.Window{JobName: name, Placements: []slot.Placement{
		{Source: src, Used: sim.Interval{Start: start, End: start.Add(length)}},
	}}
}

// synthBatch builds n single-node jobs job1..jobn.
func synthBatch(n int) *job.Batch {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{Name: jobName(i), Priority: i + 1, Request: job.ResourceRequest{
			Nodes: 1, Time: 10, MinPerformance: 1, MaxPrice: 100}}
	}
	return job.MustNewBatch(jobs)
}

func jobName(i int) string { return "job" + string(rune('1'+i)) }

// bruteForce enumerates every combination and returns (bestTimeUnderBudget,
// bestCostUnderQuota, maxIncomeUnderQuota); a negative return means
// infeasible.
func bruteForce(lists [][]*slot.Window, budget sim.Money, quota sim.Duration) (bestTime sim.Duration, bestCost sim.Money, maxIncome sim.Money) {
	bestTime, bestCost, maxIncome = -1, -1, -1
	idx := make([]int, len(lists))
	for {
		var totalT sim.Duration
		var totalC sim.Money
		for i, a := range idx {
			totalT += lists[i][a].Length()
			totalC += lists[i][a].Cost()
		}
		if totalC.LessEq(budget) && (bestTime < 0 || totalT < bestTime) {
			bestTime = totalT
		}
		if totalT <= quota {
			if bestCost < 0 || totalC < bestCost {
				bestCost = totalC
			}
			if totalC > maxIncome {
				maxIncome = totalC
			}
		}
		// Advance the mixed-radix counter.
		k := 0
		for ; k < len(idx); k++ {
			idx[k]++
			if idx[k] < len(lists[k]) {
				break
			}
			idx[k] = 0
		}
		if k == len(idx) {
			return
		}
	}
}

func TestMinimizeCostSimple(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2), synthWindow("b", 0, 30, 5)},
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 6)},
	}
	// Quota 90 admits (50, 40): cost 100+40=140 — the cheapest combo.
	plan, err := MinimizeCost(batch, alts, 90)
	if err != nil {
		t.Fatalf("MinimizeCost: %v", err)
	}
	if plan.TotalTime != 90 || !plan.TotalCost.ApproxEq(140) {
		t.Errorf("plan: time=%v cost=%v, want 90/140", plan.TotalTime, plan.TotalCost)
	}
	// Tight quota 50 forces (30, 20): cost 150+120=270.
	plan, err = MinimizeCost(batch, alts, 50)
	if err != nil {
		t.Fatalf("tight quota: %v", err)
	}
	if plan.TotalTime != 50 || !plan.TotalCost.ApproxEq(270) {
		t.Errorf("tight plan: time=%v cost=%v, want 50/270", plan.TotalTime, plan.TotalCost)
	}
}

func TestMinimizeCostInfeasible(t *testing.T) {
	batch := synthBatch(1)
	alts := Alternatives{"job1": {synthWindow("a", 0, 50, 1)}}
	_, err := MinimizeCost(batch, alts, 40)
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !strings.Contains(inf.Error(), "infeasible") {
		t.Errorf("error text: %q", inf.Error())
	}
}

func TestMinimizeCostMissingJob(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{"job1": {synthWindow("a", 0, 50, 1)}}
	if _, err := MinimizeCost(batch, alts, 1000); err == nil {
		t.Error("missing alternatives must fail")
	}
}

func TestMinimizeTimeSimple(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2), synthWindow("b", 0, 30, 5)}, // costs 100, 150
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 6)}, // costs 40, 120
	}
	// Generous budget: fastest combo (30, 20), cost 270.
	plan, err := MinimizeTime(batch, alts, 1000)
	if err != nil {
		t.Fatalf("MinimizeTime: %v", err)
	}
	if plan.TotalTime != 50 {
		t.Errorf("generous budget: time %v, want 50", plan.TotalTime)
	}
	// Budget 200: (30,20)=270 and (50,20)=220 are out; (30,40)=190 in → time 70.
	plan, err = MinimizeTime(batch, alts, 200)
	if err != nil {
		t.Fatalf("budget 200: %v", err)
	}
	if plan.TotalTime != 70 || !plan.TotalCost.ApproxEq(190) {
		t.Errorf("budget 200: time=%v cost=%v, want 70/190", plan.TotalTime, plan.TotalCost)
	}
	// Budget 140: only (50,40)=140 fits → time 90.
	plan, err = MinimizeTime(batch, alts, 140)
	if err != nil {
		t.Fatalf("budget 140: %v", err)
	}
	if plan.TotalTime != 90 {
		t.Errorf("budget 140: time %v, want 90", plan.TotalTime)
	}
	// Budget 100: infeasible.
	if _, err := MinimizeTime(batch, alts, 100); err == nil {
		t.Error("budget 100 should be infeasible")
	}
}

func TestTimeQuotaEq2(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		// l=2: floor((50+31)/2) = 40
		"job1": {synthWindow("a", 0, 50, 1), synthWindow("b", 0, 31, 1)},
		// l=3: floor((40+20+25)/3) = 28
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 1), synthWindow("e", 0, 25, 1)},
	}
	quota, err := TimeQuota(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if quota != 68 {
		t.Errorf("TimeQuota: got %v, want 68", quota)
	}
}

func TestTimeQuotaAlwaysAttainable(t *testing.T) {
	// Uniform-duration alternatives (the Section 4 regime): the quota
	// must admit the (only) achievable batch time.
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 80, 1), synthWindow("b", 0, 80, 2), synthWindow("c", 0, 80, 3)},
		"job2": {synthWindow("d", 0, 30, 1), synthWindow("e", 0, 30, 2)},
	}
	quota, err := TimeQuota(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if quota != 110 {
		t.Fatalf("quota: got %v, want 110", quota)
	}
	if _, err := MinimizeCost(batch, alts, quota); err != nil {
		t.Errorf("quota must be attainable: %v", err)
	}
}

// maxIncome answers Eq. (3) from a fresh frontier, as ComputeLimits does.
func maxIncome(batch *job.Batch, alts Alternatives, quota sim.Duration) (sim.Money, *Plan, error) {
	f, err := NewFrontier(batch, alts)
	if err != nil {
		return 0, nil, err
	}
	return f.MaxIncome(quota)
}

func TestMaxIncomeEq3(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2), synthWindow("b", 0, 30, 5)}, // costs 100, 150
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 6)}, // costs 40, 120
	}
	// Quota 60: combos (30,20)=270 and (30,40) (70>60, out) ... only
	// (30,20) fits time 50 ≤ 60 → income 270.
	income, plan, err := maxIncome(batch, alts, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !income.ApproxEq(270) || plan.TotalTime != 50 {
		t.Errorf("MaxIncome: got %v (time %v), want 270/50", income, plan.TotalTime)
	}
	// Quota 90 admits everything: max income combo is (30,20)=270 still.
	income, _, err = maxIncome(batch, alts, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !income.ApproxEq(270) {
		t.Errorf("MaxIncome q=90: got %v", income)
	}
}

func TestComputeLimitsFeasibility(t *testing.T) {
	// B* derived from T* must make MinimizeTime feasible, and T* itself
	// must make MinimizeCost feasible whenever every job's minimum
	// duration fits the floored-mean quota.
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2), synthWindow("b", 0, 30, 5)},
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 6)},
	}
	limits, err := ComputeLimits(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinimizeTime(batch, alts, limits.Budget); err != nil {
		t.Errorf("MinimizeTime under derived B* should be feasible: %v", err)
	}
	if _, err := MinimizeCost(batch, alts, limits.Quota); err != nil {
		t.Errorf("MinimizeCost under derived T* should be feasible: %v", err)
	}
}

func TestPlanAccessorsAndVector(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2)},
		"job2": {synthWindow("c", 0, 40, 1)},
	}
	plan, err := MinimizeCost(batch, alts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AverageTime() != 45 {
		t.Errorf("AverageTime: got %v", plan.AverageTime())
	}
	if math.Abs(plan.AverageCost()-70) > 1e-9 {
		t.Errorf("AverageCost: got %v", plan.AverageCost())
	}
	v := CriteriaVector(plan, 200, 100)
	if !v.Cost.ApproxEq(140) || !v.BudgetSlack.ApproxEq(60) || v.Time != 90 || v.TimeSlack != 10 {
		t.Errorf("vector: %v", v)
	}
	if v.String() == "" {
		t.Error("vector should render")
	}
	empty := &Plan{}
	if empty.AverageTime() != 0 || empty.AverageCost() != 0 {
		t.Error("empty plan averages should be zero")
	}
}

// TestDPMatchesBruteForce property: on random small instances, the DP's
// optima equal exhaustive enumeration.
func TestDPMatchesBruteForce(t *testing.T) {
	f := func(seed uint32) bool {
		rng := sim.NewRNG(uint64(seed))
		n := rng.IntBetween(1, 4)
		batch := synthBatch(n)
		alts := Alternatives{}
		lists := make([][]*slot.Window, n)
		for i := 0; i < n; i++ {
			l := rng.IntBetween(1, 4)
			ws := make([]*slot.Window, l)
			for a := 0; a < l; a++ {
				length := sim.Duration(rng.IntBetween(10, 80))
				price := sim.Money(rng.IntBetween(1, 6))
				ws[a] = synthWindow(jobName(i), 0, length, price)
			}
			alts[batch.At(i).Name] = ws
			lists[i] = ws
		}
		budget := sim.Money(rng.IntBetween(50, 800))
		quota := sim.Duration(rng.IntBetween(20, 300))
		wantTime, wantCost, wantIncome := bruteForce(lists, budget, quota)

		plan, err := MinimizeTime(batch, alts, budget)
		if wantTime < 0 {
			if err == nil {
				return false
			}
		} else {
			// Unit grid with integer prices is exact.
			if err != nil || plan.TotalTime != wantTime {
				return false
			}
			if !plan.TotalCost.LessEq(budget) {
				return false
			}
		}

		plan, err = MinimizeCost(batch, alts, quota)
		if wantCost < 0 {
			if err == nil {
				return false
			}
		} else {
			if err != nil || !plan.TotalCost.ApproxEq(wantCost) {
				return false
			}
			if plan.TotalTime > quota {
				return false
			}
		}

		income, _, err := maxIncome(batch, alts, quota)
		if wantIncome < 0 {
			if err == nil {
				return false
			}
		} else if err != nil || !income.ApproxEq(wantIncome) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeTimeInvalidBudget(t *testing.T) {
	batch := synthBatch(1)
	alts := Alternatives{"job1": {synthWindow("a", 0, 10, 1)}}
	if _, err := MinimizeTime(batch, alts, -5); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := MinimizeTime(batch, alts, sim.Money(math.NaN())); err == nil {
		t.Error("NaN budget accepted")
	}
}

func TestRunTimeConstrainedNegativeQuota(t *testing.T) {
	batch := synthBatch(1)
	alts := Alternatives{"job1": {synthWindow("a", 0, 10, 1)}}
	if _, err := MinimizeCost(batch, alts, -1); err == nil {
		t.Error("negative quota accepted")
	}
}

// TestMinimizeTimeBoundaryExactBudget: with a single alternative per job,
// B* equals that plan's exact cost and the DP must accept it, which a
// discretized money axis would round away.
func TestMinimizeTimeBoundaryExactBudget(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 53, 2.37)},
		"job2": {synthWindow("c", 0, 41, 1.19)},
	}
	limits, err := ComputeLimits(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := MinimizeTime(batch, alts, limits.Budget)
	if err != nil {
		t.Fatalf("boundary-exact budget rejected: %v", err)
	}
	if plan.TotalTime != 94 {
		t.Errorf("plan time: got %v", plan.TotalTime)
	}
}

func TestMinimizeTimeQuotaClampPreventsBlowup(t *testing.T) {
	// Regression: an absurdly large quota must not allocate a table per
	// tick; the DP clamps to the achievable maximum. The call returning
	// promptly (and correctly) is the test.
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 40, 2)},
		"job2": {synthWindow("b", 0, 30, 3)},
	}
	plan, err := MinimizeCost(batch, alts, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalTime != 70 {
		t.Errorf("plan time: %v", plan.TotalTime)
	}
	income, _, err := maxIncome(batch, alts, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if !income.ApproxEq(170) {
		t.Errorf("income: %v", income)
	}
}

func TestComputeLimitsErrorPropagates(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{"job1": {synthWindow("a", 0, 40, 2)}} // job2 missing
	if _, err := ComputeLimits(batch, alts); err == nil {
		t.Error("missing alternatives accepted")
	}
}
