package alloc

import (
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

func TestAMPFindsWindowALPCannot(t *testing.T) {
	// One cheap and one expensive node: ALP's per-slot cap (5) excludes
	// the expensive one, AMP's whole-job budget admits the mix.
	cheap := mkNode("cheap", 1, 2)
	pricey := mkNode("pricey", 1, 7)
	list := slot.NewList([]slot.Slot{
		slot.New(cheap, 0, 200),
		slot.New(pricey, 0, 200),
	})
	j := mkJob("j", 2, 100, 1, 5) // budget S = 5·100·2 = 1000; cost = (2+7)·100 = 900 ≤ S
	if _, _, ok := (ALP{}).FindWindow(list, j); ok {
		t.Fatal("ALP should fail: only one slot within the cap")
	}
	w, _, ok := AMP{}.FindWindow(list, j)
	if !ok {
		t.Fatal("AMP should find the mixed window")
	}
	if !w.UsesNode("pricey") {
		t.Error("AMP window should include the expensive node")
	}
	if !w.Cost().LessEq(j.Request.Budget()) {
		t.Errorf("AMP window cost %v exceeds budget %v", w.Cost(), j.Request.Budget())
	}
}

func TestAMPBudgetRejectsOverpriced(t *testing.T) {
	a := mkNode("a", 1, 8)
	b := mkNode("b", 1, 9)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 200),
		slot.New(b, 0, 200),
	})
	// Budget S = 5·100·2 = 1000; cheapest window costs (8+9)·100 = 1700.
	_, stats, ok := AMP{}.FindWindow(list, mkJob("j", 2, 100, 1, 5))
	if ok {
		t.Error("AMP accepted a window exceeding the budget")
	}
	if stats.BudgetChecks == 0 {
		t.Error("budget check should have run")
	}
}

func TestAMPPicksCheapestN(t *testing.T) {
	// Four concurrent slots; AMP must form the window from the two
	// cheapest (paper step 2°), not the two earliest-scanned.
	n1 := mkNode("exp1", 1, 9)
	n2 := mkNode("exp2", 1, 8)
	n3 := mkNode("cheap1", 1, 1)
	n4 := mkNode("cheap2", 1, 2)
	list := slot.NewList([]slot.Slot{
		slot.New(n1, 0, 200),
		slot.New(n2, 0, 200),
		slot.New(n3, 0, 200),
		slot.New(n4, 0, 200),
	})
	w, _, ok := AMP{}.FindWindow(list, mkJob("j", 2, 100, 1, 2))
	if !ok {
		t.Fatal("window not found")
	}
	if !w.UsesNode("cheap1") || !w.UsesNode("cheap2") {
		t.Errorf("AMP did not pick the cheapest pair: %v", w)
	}
}

func TestAMPContinuesUntilBudgetFits(t *testing.T) {
	// The first N accumulated slots exceed the budget; a cheap slot
	// appearing later must rescue the search.
	exp1 := mkNode("exp1", 1, 9)
	exp2 := mkNode("exp2", 1, 9)
	cheap := mkNode("cheap", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(exp1, 0, 400),
		slot.New(exp2, 0, 400),
		slot.New(cheap, 100, 400),
	})
	// Budget S = 5·100·2 = 1000. exp1+exp2 = 1800 > S; exp+cheap = 1000 ≤ S.
	w, _, ok := AMP{}.FindWindow(list, mkJob("j", 2, 100, 1, 5))
	if !ok {
		t.Fatal("window not found")
	}
	if w.Start() != 100 {
		t.Errorf("window start: got %v, want 100", w.Start())
	}
	if !w.UsesNode("cheap") {
		t.Error("cheap slot missing from window")
	}
	if !w.Cost().LessEq(1000) {
		t.Errorf("cost %v over budget", w.Cost())
	}
}

func TestAMPEvictionDuringAccumulation(t *testing.T) {
	// An expiring candidate must leave the structures coherently.
	a := mkNode("a", 1, 1)
	b := mkNode("b", 1, 1)
	c := mkNode("c", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 150),   // expires once start > 50
		slot.New(b, 120, 400), // advances start to 120
		slot.New(c, 125, 400),
	})
	w, stats, ok := AMP{}.FindWindow(list, mkJob("j", 2, 100, 1, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.UsesNode("a") {
		t.Error("expired candidate in window")
	}
	if stats.CandidatesEvicted != 1 {
		t.Errorf("CandidatesEvicted: got %d, want 1", stats.CandidatesEvicted)
	}
	if w.Start() != 125 {
		t.Errorf("window start: got %v, want 125", w.Start())
	}
}

func TestAMPRespectsPerformanceFloor(t *testing.T) {
	slow := mkNode("slow", 1, 1)
	fast := mkNode("fast", 2, 2)
	fast2 := mkNode("fast2", 3, 3)
	list := slot.NewList([]slot.Slot{
		slot.New(slow, 0, 500),
		slot.New(fast, 0, 500),
		slot.New(fast2, 0, 500),
	})
	w, _, ok := AMP{}.FindWindow(list, mkJob("j", 2, 90, 2, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.UsesNode("slow") {
		t.Error("node below performance floor used")
	}
	// Runtimes: fast ceil(90/2)=45, fast2 ceil(90/3)=30 → rough edge.
	if w.Length() != 45 {
		t.Errorf("window length: got %v, want 45", w.Length())
	}
}

func TestAMPRhoShrinksBudget(t *testing.T) {
	a := mkNode("a", 1, 4)
	b := mkNode("b", 1, 5)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 400),
		slot.New(b, 0, 400),
	})
	full := mkJob("j", 2, 100, 1, 5) // S = 1000, cost = 900 → fits
	if _, _, ok := (AMP{}).FindWindow(list, full); !ok {
		t.Fatal("full budget should fit")
	}
	reduced := mkJob("j", 2, 100, 1, 5)
	reduced.Request.BudgetFactor = 0.8 // S = 800 < 900
	if _, _, ok := (AMP{}).FindWindow(list, reduced); ok {
		t.Error("reduced budget should reject the window")
	}
}

func TestAMPFirstNPolicy(t *testing.T) {
	// FirstN keeps arrival order: with all four slots concurrent and
	// affordable, the first two scanned must win even if pricier.
	exp := mkNode("exp", 1, 4)
	exp2 := mkNode("exp2", 1, 4)
	cheap := mkNode("cheap", 1, 1)
	cheap2 := mkNode("cheap2", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(exp, 0, 200),
		slot.New(exp2, 0, 200),
		slot.New(cheap, 5, 200),
		slot.New(cheap2, 5, 200),
	})
	j := mkJob("j", 2, 100, 1, 5)
	w, _, ok := AMP{Policy: FirstN}.FindWindow(list, j)
	if !ok {
		t.Fatal("window not found")
	}
	if !w.UsesNode("exp") || !w.UsesNode("exp2") {
		t.Errorf("FirstN should keep arrival order: %v", w)
	}
	wc, _, ok := AMP{Policy: CheapestN}.FindWindow(list, j)
	if !ok {
		t.Fatal("cheapest window not found")
	}
	if wc.Cost() > w.Cost() {
		t.Error("CheapestN produced a pricier window than FirstN")
	}
}

func TestAMPDominatesALPOnStart(t *testing.T) {
	// Any window ALP can find, AMP can find too (Section 6), so AMP's
	// first window never starts later than ALP's. Randomized check.
	rng := sim.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		var slots []slot.Slot
		for i := 0; i < 30; i++ {
			n := mkNode("", 1+rng.Float64()*2, sim.Money(0.5+rng.Float64()*5))
			start := sim.Time(rng.IntN(300))
			slots = append(slots, slot.New(n, start, start.Add(sim.Duration(rng.IntBetween(50, 300)))))
		}
		list := slot.NewList(slots)
		j := mkJob("j", rng.IntBetween(1, 4), sim.Duration(rng.IntBetween(50, 150)), 1, sim.Money(1+rng.Float64()*3))
		alpW, _, alpOK := ALP{}.FindWindow(list, j)
		ampW, _, ampOK := AMP{}.FindWindow(list, j)
		if alpOK && !ampOK {
			t.Fatalf("trial %d: ALP found a window but AMP did not", trial)
		}
		if alpOK && ampOK && ampW.Start() > alpW.Start() {
			t.Fatalf("trial %d: AMP window starts at %v after ALP's %v", trial, ampW.Start(), alpW.Start())
		}
	}
}

func TestAMPWindowInvariants(t *testing.T) {
	// Randomized: every AMP window validates and respects the budget.
	rng := sim.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		var slots []slot.Slot
		for i := 0; i < 25; i++ {
			n := mkNode("", 1+rng.Float64()*2, sim.Money(0.5+rng.Float64()*6))
			start := sim.Time(rng.IntN(200))
			slots = append(slots, slot.New(n, start, start.Add(sim.Duration(rng.IntBetween(40, 250)))))
		}
		list := slot.NewList(slots)
		j := mkJob("j", rng.IntBetween(1, 5), sim.Duration(rng.IntBetween(40, 120)), 1, sim.Money(1+rng.Float64()*2))
		w, _, ok := AMP{}.FindWindow(list, j)
		if !ok {
			continue
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("trial %d: invalid window: %v", trial, err)
		}
		if !w.Cost().LessEq(j.Request.Budget()) {
			t.Fatalf("trial %d: cost %v exceeds budget %v", trial, w.Cost(), j.Request.Budget())
		}
		if len(w.Placements) != j.Request.Nodes {
			t.Fatalf("trial %d: window size %d, want %d", trial, len(w.Placements), j.Request.Nodes)
		}
	}
}

func TestAMPNameAndPolicyString(t *testing.T) {
	if (AMP{}).Name() != "AMP" {
		t.Error("Name should be AMP")
	}
	if CheapestN.String() != "cheapest-N" || FirstN.String() != "first-N" {
		t.Error("policy names wrong")
	}
	if WindowPolicy(99).String() != "unknown-policy" {
		t.Error("unknown policy name wrong")
	}
}

func TestAMPInvalidInputs(t *testing.T) {
	if _, _, ok := (AMP{}).FindWindow(nil, mkJob("j", 1, 10, 1, 10)); ok {
		t.Error("nil list accepted")
	}
	list := slot.NewList(nil)
	if _, _, ok := (AMP{}).FindWindow(list, &job.Job{Name: "bad"}); ok {
		t.Error("invalid job accepted")
	}
}

func TestDeadlineConstrainsWindows(t *testing.T) {
	a := mkNode("a", 1, 1)
	b := mkNode("b", 1, 1)
	c := mkNode("c", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 500),
		slot.New(b, 150, 500), // a pair exists only from 150 on
		slot.New(c, 400, 900),
	})
	// Without a deadline, the pair {a, b} forms at 150 and ends at 250.
	free := mkJob("free", 2, 100, 1, 10)
	for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
		w, _, ok := algo.FindWindow(list, free)
		if !ok || w.Start() != 150 {
			t.Fatalf("%s baseline: %v %v", algo.Name(), w, ok)
		}
	}
	// A deadline of 250 still admits that window (ends exactly at 250).
	tight := mkJob("tight", 2, 100, 1, 10)
	tight.Request.Deadline = 250
	for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
		w, _, ok := algo.FindWindow(list, tight)
		if !ok {
			t.Fatalf("%s: boundary deadline rejected", algo.Name())
		}
		if w.End() > 250 {
			t.Errorf("%s: window %v misses the deadline", algo.Name(), w)
		}
	}
	// A deadline of 249 kills it: the earliest pair cannot finish in time.
	impossible := mkJob("late", 2, 100, 1, 10)
	impossible.Request.Deadline = 249
	for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
		if _, _, ok := algo.FindWindow(list, impossible); ok {
			t.Errorf("%s: found a window violating the deadline", algo.Name())
		}
	}
}

func TestDeadlineStopsScanEarly(t *testing.T) {
	// Slots far past the deadline must not be examined (starts are
	// non-decreasing, so the scan can stop). Two slots per start so a
	// two-node window exists at time 0.
	var slots []slot.Slot
	for i := 0; i < 25; i++ {
		start := sim.Time(i * 100)
		for k := 0; k < 2; k++ {
			n := mkNode("", 1, 1)
			slots = append(slots, slot.New(n, start, start.Add(400)))
		}
	}
	list := slot.NewList(slots)
	j := mkJob("d", 2, 50, 1, 10)
	j.Request.Deadline = 120
	_, stats, ok := AMP{}.FindWindow(list, j)
	if !ok {
		t.Fatal("feasible deadline rejected")
	}
	if stats.SlotsExamined >= 50 {
		t.Errorf("scan did not stop at the deadline: examined %d", stats.SlotsExamined)
	}
	// Infeasible deadline: still stops early rather than scanning all.
	j2 := mkJob("d2", 10, 50, 1, 10)
	j2.Request.Deadline = 90
	_, stats2, ok2 := ALP{}.FindWindow(list, j2)
	if ok2 {
		t.Error("infeasible deadline satisfied")
	}
	if stats2.SlotsExamined >= 50 {
		t.Errorf("ALP scan did not stop: examined %d", stats2.SlotsExamined)
	}
}

func TestDeadlineWithHeterogeneousRuntime(t *testing.T) {
	// Only the fast node can make the deadline: runtime 50 vs 100.
	fast := mkNode("fast", 2, 3)
	slow := mkNode("slow", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(slow, 0, 400),
		slot.New(fast, 0, 400),
	})
	j := mkJob("h", 1, 100, 1, 5)
	j.Request.Deadline = 60
	w, _, ok := AMP{}.FindWindow(list, j)
	if !ok {
		t.Fatal("deadline achievable on the fast node")
	}
	if !w.UsesNode("fast") || w.End() > 60 {
		t.Errorf("wrong window: %v", w)
	}
}
