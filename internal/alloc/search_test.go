package alloc

import (
	"testing"
	"testing/quick"

	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// twoJobBatch returns a batch whose jobs compete for the same slots.
func twoJobBatch() *job.Batch {
	return job.MustNewBatch([]*job.Job{
		mkJob("job1", 2, 80, 1, 10),
		{Name: "job2", Priority: 2, Request: job.ResourceRequest{
			Nodes: 1, Time: 50, MinPerformance: 1, MaxPrice: 10}},
	})
}

// smallList is three idle nodes. They carry distinct IDs so the list also
// splits into shard views: the canonical cross-shard order breaks start ties
// by node ID.
func smallList() *slot.List {
	a := mkNode("a", 1, 2)
	b := mkNode("b", 1, 3)
	c := mkNode("c", 1, 4)
	a.ID, b.ID, c.ID = 1, 2, 3
	return slot.NewList([]slot.Slot{
		slot.New(a, 0, 400),
		slot.New(b, 0, 400),
		slot.New(c, 0, 400),
	})
}

func TestFindAlternativesBasics(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()
	res, err := FindAlternatives(ALP{}, list, batch, SearchOptions{})
	if err != nil {
		t.Fatalf("FindAlternatives: %v", err)
	}
	if !res.AllJobsCovered(batch) {
		t.Fatal("both jobs should get alternatives on an idle list")
	}
	if res.TotalAlternatives() == 0 || res.Passes == 0 {
		t.Error("search should report work done")
	}
	if res.Algorithm != "ALP" {
		t.Errorf("Algorithm: got %s", res.Algorithm)
	}
	// The input list must be untouched.
	if list.Len() != 3 || list.TotalTime() != 1200 {
		t.Error("input list was modified")
	}
}

func TestAlternativesAreDisjoint(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()
	for _, algo := range []Algorithm{ALP{}, AMP{}} {
		res, err := FindAlternatives(algo, list, batch, SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		var all []*slot.Window
		for _, ws := range res.Alternatives {
			all = append(all, ws...)
		}
		if overlapping(all) {
			t.Errorf("%s: windows overlap: %v", algo.Name(), all)
		}
	}
}

func TestSearchTerminatesAndConservesTime(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()
	res, remaining, err := findAlternativesHeld(AMP{}, list, batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Remaining vacant time + time consumed by windows = original time.
	var used sim.Duration
	for _, ws := range res.Alternatives {
		for _, w := range ws {
			for _, p := range w.Placements {
				used += p.Runtime()
			}
		}
	}
	if remaining.TotalTime()+used != list.TotalTime() {
		t.Errorf("time not conserved: remaining %v + used %v != original %v",
			remaining.TotalTime(), used, list.TotalTime())
	}
	if err := remaining.Validate(); err != nil {
		t.Errorf("remaining list invalid: %v", err)
	}
	if remaining.OverlapOnSameNode() {
		t.Error("remaining list has same-node overlaps")
	}
}

func TestSearchOptionsCaps(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()

	capped, err := FindAlternatives(AMP{}, list, batch, SearchOptions{MaxAlternativesPerJob: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, ws := range capped.Alternatives {
		if len(ws) > 1 {
			t.Errorf("%s: per-job cap violated (%d)", name, len(ws))
		}
	}

	first, err := FindFirst(AMP{}, list, batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalAlternatives() != 2 {
		t.Errorf("FindFirst: got %d alternatives, want 2", first.TotalAlternatives())
	}
	if first.Passes != 1 {
		t.Errorf("FindFirst: got %d passes, want 1", first.Passes)
	}
}

func TestSearchPriorityOrder(t *testing.T) {
	// With a single slot only the highest-priority job can be served.
	a := mkNode("a", 1, 1)
	list := slot.NewList([]slot.Slot{slot.New(a, 0, 100)})
	batch := job.MustNewBatch([]*job.Job{
		{Name: "low", Priority: 9, Request: job.ResourceRequest{Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 5}},
		{Name: "high", Priority: 1, Request: job.ResourceRequest{Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 5}},
	})
	res, err := FindAlternatives(ALP{}, list, batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alternatives["high"]) != 1 || len(res.Alternatives["low"]) != 0 {
		t.Errorf("priority order violated: %v", res.Alternatives)
	}
	if res.AllJobsCovered(batch) {
		t.Error("coverage should be incomplete")
	}
}

func TestSearchInvalidInputs(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()
	if _, err := FindAlternatives(nil, list, batch, SearchOptions{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := FindAlternatives(ALP{}, nil, batch, SearchOptions{}); err == nil {
		t.Error("nil list accepted")
	}
	if _, err := FindAlternatives(ALP{}, list, nil, SearchOptions{}); err == nil {
		t.Error("nil batch accepted")
	}
	empty := job.MustNewBatch(nil)
	if _, err := FindAlternatives(ALP{}, list, empty, SearchOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
}

// overlapping reports whether two of the windows share processor time on one
// node: their used intervals, taken as slots, overlap on a node.
func overlapping(ws []*slot.Window) bool {
	var used []slot.Slot
	for _, w := range ws {
		for _, p := range w.Placements {
			used = append(used, slot.Slot{Node: p.Source.Node, Price: p.Source.Price, Span: p.Used})
		}
	}
	return slot.NewList(used).OverlapOnSameNode()
}

func TestSearchResultAccessors(t *testing.T) {
	res := &SearchResult{Alternatives: map[string][]*slot.Window{}}
	if res.TotalAlternatives() != 0 {
		t.Error("empty result should report 0 alternatives")
	}
	res.Alternatives["a"] = []*slot.Window{{}, {}}
	res.Alternatives["b"] = []*slot.Window{{}}
	if res.TotalAlternatives() != 3 {
		t.Errorf("TotalAlternatives: got %d", res.TotalAlternatives())
	}
}

// TestSearchPropertyOnGeneratedScenarios runs the full search on random
// Section 5 scenarios and checks the global invariants: every window
// validates, ALP windows respect per-slot caps, AMP windows respect budgets,
// all windows are pairwise disjoint, and vacant time is conserved.
func TestSearchPropertyOnGeneratedScenarios(t *testing.T) {
	slotGen := workload.PaperSlotGenerator()
	slotGen.CountMin, slotGen.CountMax = 40, 60 // smaller for test speed
	jobGen := workload.PaperJobGenerator()
	f := func(seed uint32) bool {
		rng := sim.NewRNG(uint64(seed))
		sc, err := workload.GenerateScenario(slotGen, jobGen, rng)
		if err != nil {
			return false
		}
		for _, algo := range []Algorithm{ALP{}, AMP{}} {
			res, remaining, err := findAlternativesHeld(algo, sc.Slots, sc.Batch, SearchOptions{})
			if err != nil {
				return false
			}
			var all []*slot.Window
			var used sim.Duration
			for name, ws := range res.Alternatives {
				j := sc.Batch.ByName(name)
				for _, w := range ws {
					if w.Validate() != nil {
						return false
					}
					if len(w.Placements) != j.Request.Nodes {
						return false
					}
					if algo.Name() == "ALP" && w.MaxSlotPrice() > j.Request.MaxPrice+sim.MoneyEpsilon {
						return false
					}
					if algo.Name() == "AMP" && !w.Cost().LessEq(j.Request.Budget()) {
						return false
					}
					for _, p := range w.Placements {
						if p.Source.Performance() < j.Request.MinPerformance {
							return false
						}
						used += p.Runtime()
					}
					all = append(all, w)
				}
			}
			if overlapping(all) {
				return false
			}
			if remaining.TotalTime()+used != sc.Slots.TotalTime() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSearchDeterminism: identical inputs produce identical outputs.
func TestSearchDeterminism(t *testing.T) {
	slotGen := workload.PaperSlotGenerator()
	jobGen := workload.PaperJobGenerator()
	sc, err := workload.GenerateScenario(slotGen, jobGen, sim.NewRNG(123))
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		res, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, j := range sc.Batch.Jobs() {
			for _, w := range res.Alternatives[j.Name] {
				out += w.String() + "\n"
			}
		}
		return out
	}
	if run() != run() {
		t.Error("search is not deterministic on identical input")
	}
}

// TestSearchHonorsDeadlinesAcrossPasses: with per-job deadlines set, every
// alternative found by the multi-pass search (ALP and AMP) ends in time.
func TestSearchHonorsDeadlinesAcrossPasses(t *testing.T) {
	slotGen := workload.PaperSlotGenerator()
	slotGen.CountMin, slotGen.CountMax = 60, 80
	jobGen := workload.PaperJobGenerator()
	rng := sim.NewRNG(77)
	for trial := 0; trial < 15; trial++ {
		sc, err := workload.GenerateScenario(slotGen, jobGen, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range sc.Batch.Jobs() {
			j.Request.Deadline = sim.Time(rng.IntBetween(100, 400))
		}
		for _, search := range []func() (*SearchResult, error){
			func() (*SearchResult, error) {
				return FindAlternatives(AMP{}, sc.Slots, sc.Batch, SearchOptions{})
			},
			func() (*SearchResult, error) {
				return FindAlternatives(ALP{}, sc.Slots, sc.Batch, SearchOptions{})
			},
		} {
			res, err := search()
			if err != nil {
				t.Fatal(err)
			}
			for name, ws := range res.Alternatives {
				deadline := sc.Batch.ByName(name).Request.Deadline
				for _, w := range ws {
					if w.End() > deadline {
						t.Fatalf("trial %d: window %v misses deadline %v", trial, w, deadline)
					}
				}
			}
		}
	}
}

// TestParallelDelegatesAndValidates pins what is left of the deprecated
// FindAlternativesParallel until the benchmark harness stops naming it: any
// parallelism returns FindAlternatives' result, and the arguments are
// validated the same way.
func TestParallelDelegatesAndValidates(t *testing.T) {
	list, batch := diffScenario(t, 4)
	seq, seqRemaining, err := findAlternativesHeld(AMP{}, list, batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, 1, 4} {
		opts := SearchOptions{Prebuilt: slot.NewIndex(list, nil)}
		got, err := FindAlternativesParallel(AMP{}, list, batch, opts, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(t, batch, got, opts.Prebuilt.List()) != renderResult(t, batch, seq, seqRemaining) {
			t.Fatalf("parallelism=%d did not forward to FindAlternatives", parallelism)
		}
	}
	if _, err := FindAlternativesParallel(nil, list, batch, SearchOptions{}, 4); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := FindAlternativesParallel(AMP{}, nil, batch, SearchOptions{}, 4); err == nil {
		t.Fatal("nil list accepted")
	}
	if _, err := FindAlternativesParallel(AMP{}, list, nil, SearchOptions{}, 4); err == nil {
		t.Fatal("nil batch accepted")
	}
}
