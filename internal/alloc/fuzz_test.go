package alloc

import (
	"fmt"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// fuzzList derives a deterministic vacant list from a seed: a handful of
// nodes with spread-out performance and price, several slots per node laid
// out without same-node overlap.
func fuzzList(seed uint64, nNodes, slotsPerNode int) *slot.List {
	rng := sim.NewRNG(seed)
	var slots []slot.Slot
	for i := 0; i < nNodes; i++ {
		n := &resource.Node{
			Name:        fmt.Sprintf("f%d", i),
			Performance: 0.5 + rng.FloatBetween(0.5, 2.5),
			Price:       sim.Money(rng.FloatBetween(0.5, 10)),
		}
		end := sim.Time(rng.IntBetween(0, 50))
		for k := 0; k < slotsPerNode; k++ {
			start := end.Add(sim.Duration(rng.IntBetween(1, 40)))
			end = start.Add(rng.DurationBetween(20, 400))
			slots = append(slots, slot.New(n, start, end))
		}
	}
	return slot.NewList(slots)
}

// fuzzRequest maps raw fuzz bytes onto a structurally valid resource request.
// Validation still runs in the target; this mapping only keeps the generator
// inside the interesting region instead of rejecting almost every input.
func fuzzRequest(nodesWanted, perfTenths uint8, timeTicks, priceCenti, rhoCenti, deadline uint16) job.ResourceRequest {
	return job.ResourceRequest{
		Nodes:          1 + int(nodesWanted%6),
		Time:           sim.Duration(1 + timeTicks%300),
		MinPerformance: 0.5 + float64(perfTenths%30)/10,
		MaxPrice:       sim.Money(priceCenti%1200) / 100,
		BudgetFactor:   float64(rhoCenti%300) / 100,
		Deadline:       sim.Time(deadline % 2000),
	}
}

// FuzzFindWindow throws randomized slot lists and resource requests at both
// search algorithms and asserts the paper's contract on every window found:
// exactly N placements, all on nodes meeting the performance floor, runtimes
// matching ceil(t/P) within the source slot and any deadline, the cost model
// of the chosen algorithm (per-slot cap C for ALP, whole-window budget S for
// AMP), and a scan that never visits more slots than the list holds. The
// multi-pass search is then checked for pairwise-disjoint alternatives,
// vacant-time conservation, and agreement with the linear reference.
func FuzzFindWindow(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(2), uint8(5), uint16(80), uint16(500), uint16(100), uint16(0))
	f.Add(uint64(7), uint8(8), uint8(2), uint8(1), uint8(12), uint16(40), uint16(90), uint16(250), uint16(900))
	f.Add(uint64(42), uint8(2), uint8(5), uint8(6), uint8(0), uint16(299), uint16(1199), uint16(299), uint16(1999))

	f.Fuzz(func(t *testing.T, seed uint64, nNodes, slotsPerNode, nodesWanted, perfTenths uint8, timeTicks, priceCenti, rhoCenti, deadline uint16) {
		list := fuzzList(seed, 1+int(nNodes%10), 1+int(slotsPerNode%6))
		req := fuzzRequest(nodesWanted, perfTenths, timeTicks, priceCenti, rhoCenti, deadline)
		j := &job.Job{Name: "fz", Priority: 1, Request: req}
		if err := j.Validate(); err != nil {
			return // mapping produced a request the API rejects; nothing to check
		}

		for _, algo := range []linearAlgorithm{ALP{}, AMP{}, AMP{Policy: FirstN}} {
			w, stats, ok := algo.FindWindow(list, j)
			if stats.SlotsExamined > list.Len() {
				t.Fatalf("%s examined %d slots of %d: not a single linear scan", algo.Name(), stats.SlotsExamined, list.Len())
			}
			if !ok {
				continue
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("%s window invalid: %v", algo.Name(), err)
			}
			if len(w.Placements) != req.Nodes {
				t.Fatalf("%s window has %d placements, want N=%d", algo.Name(), len(w.Placements), req.Nodes)
			}
			for i, p := range w.Placements {
				if perf := p.Source.Performance(); perf < req.MinPerformance {
					t.Fatalf("%s placement %d on performance %.3f node, floor P=%.3f", algo.Name(), i, perf, req.MinPerformance)
				}
				if want := p.Source.Runtime(req.Time); p.Runtime() != want {
					t.Fatalf("%s placement %d runtime %v, want ceil(t/P)=%v", algo.Name(), i, p.Runtime(), want)
				}
				if req.Deadline > 0 && p.Used.End > req.Deadline {
					t.Fatalf("%s placement %d ends at %v past deadline %v", algo.Name(), i, p.Used.End, req.Deadline)
				}
			}
			switch algo.(type) {
			case ALP:
				if w.MaxSlotPrice() > req.MaxPrice {
					t.Fatalf("ALP window slot price %v exceeds per-slot cap C=%v", w.MaxSlotPrice(), req.MaxPrice)
				}
			case AMP:
				// Tiny relative slack: the window cost re-sums placement costs
				// in a different order than the algorithm's budget check.
				budget := req.Budget()
				if float64(w.Cost()) > float64(budget)*(1+1e-9)+1e-9 {
					t.Fatalf("AMP window cost %v exceeds budget S=%v", w.Cost(), budget)
				}
			}
		}

		// Multi-pass search over a small batch built from variations of the
		// fuzzed request: alternatives must stay pairwise disjoint, vacant
		// time must shrink by exactly the occupied time, and the indexed
		// search must agree bit for bit with the linear reference.
		jobs := make([]*job.Job, 0, 3)
		for i := 0; i < 3; i++ {
			cp := *j
			cp.Name = fmt.Sprintf("fz%d", i)
			cp.Priority = i + 1
			cp.Request.Time = req.Time + sim.Duration(i*7)
			jobs = append(jobs, &cp)
		}
		batch, err := job.NewBatch(jobs)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
			res, remaining, err := findAlternativesHeld(algo, list, batch, SearchOptions{MaxAlternativesPerJob: 4})
			if err != nil {
				t.Fatalf("%s FindAlternatives: %v", algo.Name(), err)
			}
			var all []*slot.Window
			var occupied sim.Duration
			for _, name := range []string{"fz0", "fz1", "fz2"} {
				for _, w := range res.Alternatives[name] {
					all = append(all, w)
					for _, p := range w.Placements {
						occupied += p.Runtime()
					}
				}
			}
			if overlapping(all) {
				t.Fatalf("%s alternatives overlap: %v", algo.Name(), all)
			}
			if err := remaining.Validate(); err != nil {
				t.Fatalf("%s remaining list invalid: %v", algo.Name(), err)
			}
			if got, want := remaining.TotalTime(), list.TotalTime()-occupied; got != want {
				t.Fatalf("%s vacant time %v after occupying %v of %v, want %v",
					algo.Name(), got, occupied, list.TotalTime(), want)
			}
			oracle, oracleRemaining, err := findAlternativesLinear(algo, list, batch, SearchOptions{MaxAlternativesPerJob: 4})
			if err != nil {
				t.Fatalf("%s linear: %v", algo.Name(), err)
			}
			if got, want := renderResult(t, batch, res, remaining), renderResult(t, batch, oracle, oracleRemaining); got != want {
				t.Fatalf("%s indexed result diverged\n--- linear ---\n%s\n--- indexed ---\n%s", algo.Name(), want, got)
			}
		}
	})
}
