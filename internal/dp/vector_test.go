package dp

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

func TestParetoFrontSimple(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2), synthWindow("b", 0, 30, 5)}, // (t,c): (50,100) (30,150)
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 6)}, // (40,40) (20,120)
	}
	// Combinations: (90,140) (70,220) (70,190) (50,270).
	// Frontier: (50,270), (70,190), (90,140).
	front, err := ParetoFront(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 3 {
		t.Fatalf("frontier size: got %d, want 3", len(front))
	}
	wantT := []sim.Duration{50, 70, 90}
	wantC := []sim.Money{270, 190, 140}
	for i, p := range front {
		if p.TotalTime != wantT[i] || !p.TotalCost.ApproxEq(wantC[i]) {
			t.Errorf("front[%d] = (%v, %v), want (%v, %v)",
				i, p.TotalTime, p.TotalCost, wantT[i], wantC[i])
		}
		if len(p.Choices) != 2 {
			t.Errorf("front[%d] has %d choices", i, len(p.Choices))
		}
	}
}

// TestParetoEndpointsMatchScalarOptima pins the front's representatives: its
// fastest endpoint is the plan MinimizeTime picks under that endpoint's own
// cost, and its cheapest endpoint the plan MinimizeCost picks under that
// endpoint's own time — window for window, so instances with (T, C) ties
// must agree on the canonical lexicographically smallest choice too.
func TestParetoEndpointsMatchScalarOptima(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		fr, alts, _, _ := randomInstance(seed)
		tfr, talts := tieInstance(seed)
		for _, inst := range []struct {
			label string
			fr    *Frontier
			alts  Alternatives
		}{{"random", fr, alts}, {"ties", tfr, talts}} {
			label := fmt.Sprintf("%s seed %d", inst.label, seed)
			front, err := ParetoFront(inst.fr.batch, inst.alts)
			if err != nil {
				t.Fatal(err)
			}
			fastest, cheapest := front[0], front[len(front)-1]
			minTime, err := inst.fr.MinimizeTime(fastest.TotalCost)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			samePlan(t, label+" fastest endpoint", fastest, minTime)
			minCost, err := inst.fr.MinimizeCost(cheapest.TotalTime)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			samePlan(t, label+" cheapest endpoint", cheapest, minCost)
		}
	}
}

// tieInstance draws up to four jobs with up to 16 alternatives each over
// three lengths and two prices, so many plans tie on (T, C) and the choice
// of representative is observable.
func tieInstance(seed uint64) (*Frontier, Alternatives) {
	rng := sim.NewRNG(seed)
	n := rng.IntBetween(1, 4)
	batch := synthBatch(n)
	alts := Alternatives{}
	for i := 0; i < n; i++ {
		ws := make([]*slot.Window, rng.IntBetween(1, 16))
		for a := range ws {
			ws[a] = synthWindow(jobName(i), 0, sim.Duration(10*rng.IntBetween(1, 3)), sim.Money(rng.IntBetween(1, 2)))
		}
		alts[batch.At(i).Name] = ws
	}
	fr, err := NewFrontier(batch, alts)
	if err != nil {
		panic(err)
	}
	return fr, alts
}

// TestParetoFrontIsNonDominatedAndComplete property: on random instances,
// every frontier point is feasible and non-dominated, and every enumerated
// combination is dominated by (or equal to) some frontier point.
func TestParetoFrontIsNonDominatedAndComplete(t *testing.T) {
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
				ws[a] = synthWindow(jobName(i), 0,
					sim.Duration(rng.IntBetween(10, 80)), sim.Money(rng.IntBetween(1, 6)))
			}
			alts[batch.At(i).Name] = ws
			lists[i] = ws
		}
		front, err := ParetoFront(batch, alts)
		if err != nil || len(front) == 0 {
			return false
		}
		// Frontier ordered by time ascending, cost descending; pairwise
		// non-dominated.
		for i := 1; i < len(front); i++ {
			if front[i].TotalTime <= front[i-1].TotalTime {
				return false
			}
			if front[i].TotalCost >= front[i-1].TotalCost {
				return false
			}
		}
		// Completeness: every combination is weakly dominated.
		idx := make([]int, n)
		for {
			var tt sim.Duration
			var tc sim.Money
			for i, a := range idx {
				tt += lists[i][a].Length()
				tc += lists[i][a].Cost()
			}
			dominated := false
			for _, p := range front {
				if p.TotalTime <= tt && p.TotalCost <= tc+sim.MoneyEpsilon {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
			k := 0
			for ; k < n; k++ {
				idx[k]++
				if idx[k] < len(lists[k]) {
					break
				}
				idx[k] = 0
			}
			if k == n {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestWeightedSum(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{
		"job1": {synthWindow("a", 0, 50, 2), synthWindow("b", 0, 30, 5)},
		"job2": {synthWindow("c", 0, 40, 1), synthWindow("d", 0, 20, 6)},
	}
	// Pure time weight → fastest endpoint (50, 270).
	p, err := WeightedSum(batch, alts, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalTime != 50 {
		t.Errorf("time-weighted: %v", p.TotalTime)
	}
	// Pure cost weight → cheapest endpoint (90, 140).
	p, err = WeightedSum(batch, alts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.TotalCost.ApproxEq(140) {
		t.Errorf("cost-weighted: %v", p.TotalCost)
	}
	// Balanced weights can pick an interior point: w=(3, 1) →
	// values: 50·3+270=420, 70·3+190=400, 90·3+140=410 → (70, 190).
	p, err = WeightedSum(batch, alts, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalTime != 70 || !p.TotalCost.ApproxEq(190) {
		t.Errorf("balanced: (%v, %v)", p.TotalTime, p.TotalCost)
	}
	for _, w := range [][2]float64{{-1, 1}, {0, 0}, {math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)}} {
		if _, err := WeightedSum(batch, alts, w[0], w[1]); err == nil || !strings.Contains(err.Error(), "invalid weights") {
			t.Errorf("weights %v: got %v, want an invalid-weights error", w, err)
		}
	}
}

func TestFrontierVectors(t *testing.T) {
	batch := synthBatch(1)
	alts := Alternatives{"job1": {synthWindow("a", 0, 50, 2)}}
	front, err := ParetoFront(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	vecs := FrontierVectors(front, Limits{Quota: 60, Budget: 120})
	if len(vecs) != 1 {
		t.Fatalf("vectors: %d", len(vecs))
	}
	v := vecs[0]
	if v.Time != 50 || v.TimeSlack != 10 || !v.Cost.ApproxEq(100) || !v.BudgetSlack.ApproxEq(20) {
		t.Errorf("vector: %v", v)
	}
}

func TestParetoFrontMissingJob(t *testing.T) {
	batch := synthBatch(2)
	alts := Alternatives{"job1": {synthWindow("a", 0, 50, 2)}}
	if _, err := ParetoFront(batch, alts); err == nil {
		t.Error("missing alternatives accepted")
	}
}
