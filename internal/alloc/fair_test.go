package alloc

import (
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

func TestFairCommitsGloballyEarliest(t *testing.T) {
	// Two jobs; the higher-priority job's earliest window starts later
	// than the lower-priority job's. Fair search must commit the earlier
	// one first.
	fast := mkNode("fast", 2, 2) // meets job "picky" (P >= 2), free from 100
	slow := mkNode("slow", 1, 1) // meets job "easy", free from 0
	list := slot.NewList([]slot.Slot{
		slot.New(slow, 0, 400),
		slot.New(fast, 100, 400),
	})
	batch := job.MustNewBatch([]*job.Job{
		{Name: "picky", Priority: 1, Request: job.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 2, MaxPrice: 5}},
		{Name: "easy", Priority: 2, Request: job.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 5}},
	})
	res, err := FindAlternativesFair(AMP{}, list, batch, SearchOptions{FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	easy := res.Alternatives["easy"]
	picky := res.Alternatives["picky"]
	if len(easy) != 1 || len(picky) != 1 {
		t.Fatalf("coverage: easy=%d picky=%d", len(easy), len(picky))
	}
	if easy[0].Start() != 0 {
		t.Errorf("easy should start at 0, got %v", easy[0].Start())
	}
	if picky[0].Start() != 100 {
		t.Errorf("picky should start at 100, got %v", picky[0].Start())
	}
}

func TestFairAvoidsPriorityStarvation(t *testing.T) {
	// One slot both jobs want, plus a later slot only the high-priority
	// job can use (performance floor). The sequential search gives the
	// early slot to the high-priority job and leaves the low-priority job
	// a worse (later) start; fair search gives the early slot to the job
	// that can only run there.
	fast := mkNode("fast", 2, 2)
	slow := mkNode("slow", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(fast, 0, 200),   // usable by both
		slot.New(slow, 150, 400), // usable only by "easy"
	})
	batch := job.MustNewBatch([]*job.Job{
		{Name: "vip", Priority: 1, Request: job.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 2, MaxPrice: 5}},
		{Name: "easy", Priority: 2, Request: job.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 5}},
	})
	seq, err := FindAlternatives(AMP{}, list, batch, SearchOptions{FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := FindAlternativesFair(AMP{}, list, batch, SearchOptions{FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both serve both jobs here (the slow slot saves "easy"), but the
	// batch-wide latest start must not be worse under fair search.
	latest := func(r *SearchResult) sim.Time {
		var m sim.Time
		for _, ws := range r.Alternatives {
			for _, w := range ws {
				if w.Start() > m {
					m = w.Start()
				}
			}
		}
		return m
	}
	if latest(fair) > latest(seq) {
		t.Errorf("fair search worsened the batch: fair latest %v, sequential %v", latest(fair), latest(seq))
	}
	// In this construction the fair result serves vip at 0 and easy at
	// 150 — same as sequential; the value shows on contended batches
	// (see the property test below).
	if len(fair.Alternatives["vip"]) != 1 || len(fair.Alternatives["easy"]) != 1 {
		t.Error("fair coverage incomplete")
	}
}

func TestFairDisjointAndConserving(t *testing.T) {
	slotGen := workload.PaperSlotGenerator()
	slotGen.CountMin, slotGen.CountMax = 50, 60
	jobGen := workload.PaperJobGenerator()
	rng := sim.NewRNG(21)
	for trial := 0; trial < 20; trial++ {
		sc, err := workload.GenerateScenario(slotGen, jobGen, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		res, err := FindAlternativesFair(AMP{}, sc.Slots, sc.Batch, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var all []*slot.Window
		var used sim.Duration
		for _, ws := range res.Alternatives {
			for _, w := range ws {
				if err := w.Validate(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				for _, p := range w.Placements {
					used += p.Runtime()
				}
				all = append(all, w)
			}
		}
		if overlapping(all) {
			t.Fatalf("trial %d: overlapping windows", trial)
		}
		if res.Remaining().TotalTime()+used != sc.Slots.TotalTime() {
			t.Fatalf("trial %d: time not conserved", trial)
		}
	}
}

func TestFairEarliestStartNeverLater(t *testing.T) {
	// Property: for every covered job, the fair search's first window
	// never starts later than the LAST-priority treatment it would get
	// sequentially... comparing directly: the earliest start over the
	// whole batch is identical (the globally earliest window is committed
	// first in both schemes when it belongs to the highest priority job,
	// and fair picks it regardless of owner).
	slotGen := workload.PaperSlotGenerator()
	slotGen.CountMin, slotGen.CountMax = 40, 50
	jobGen := workload.PaperJobGenerator()
	rng := sim.NewRNG(33)
	for trial := 0; trial < 20; trial++ {
		sc, err := workload.GenerateScenario(slotGen, jobGen, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		seq, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, SearchOptions{FirstOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		fair, err := FindAlternativesFair(AMP{}, sc.Slots, sc.Batch, SearchOptions{FirstOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		earliest := func(r *SearchResult) (sim.Time, bool) {
			var m sim.Time = 1 << 60
			found := false
			for _, ws := range r.Alternatives {
				for _, w := range ws {
					found = true
					if w.Start() < m {
						m = w.Start()
					}
				}
			}
			return m, found
		}
		se, sok := earliest(seq)
		fe, fok := earliest(fair)
		if sok != fok {
			continue
		}
		if fok && fe > se {
			t.Fatalf("trial %d: fair earliest %v after sequential %v", trial, fe, se)
		}
	}
}

func TestFairInvalidInputs(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()
	if _, err := FindAlternativesFair(nil, list, batch, SearchOptions{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := FindAlternativesFair(AMP{}, nil, batch, SearchOptions{}); err == nil {
		t.Error("nil list accepted")
	}
	if _, err := FindAlternativesFair(AMP{}, list, nil, SearchOptions{}); err == nil {
		t.Error("nil batch accepted")
	}
}

func TestFairAlgorithmLabel(t *testing.T) {
	list := smallList()
	batch := twoJobBatch()
	res, err := FindAlternativesFair(ALP{}, list, batch, SearchOptions{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "ALP/fair" {
		t.Errorf("label: %q", res.Algorithm)
	}
}
