package alloc

import (
	"testing"

	"ecosched/internal/job"
)

// FuzzAMPBudget targets the economic contracts of the two algorithms across
// the full multi-pass search, where later passes scan lists already reduced
// by earlier subtractions: every window AMP returns — under both the
// cheapest-N paper policy and the first-N ablation policy — costs at most
// the job's budget S = ρ·C·t·N, and every window ALP returns keeps each
// per-slot price at or below the cap C. FuzzFindWindow covers the
// single-window call; this target pins the same bounds through
// FindAlternatives, whose windows come from deeper passes.
func FuzzAMPBudget(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(2), uint8(5), uint16(80), uint16(500), uint16(100), uint16(0))
	f.Add(uint64(9), uint8(6), uint8(4), uint8(1), uint8(10), uint16(120), uint16(800), uint16(60), uint16(1500))
	f.Add(uint64(42), uint8(2), uint8(5), uint8(6), uint8(0), uint16(299), uint16(1199), uint16(299), uint16(1999))

	f.Fuzz(func(t *testing.T, seed uint64, nNodes, slotsPerNode, nodesWanted, perfTenths uint8, timeTicks, priceCenti, rhoCenti, deadline uint16) {
		list := fuzzList(seed, 1+int(nNodes%10), 1+int(slotsPerNode%6))
		req := fuzzRequest(nodesWanted, perfTenths, timeTicks, priceCenti, rhoCenti, deadline)
		j := &job.Job{Name: "bz", Priority: 1, Request: req}
		if err := j.Validate(); err != nil {
			return
		}
		batch, err := job.NewBatch([]*job.Job{j})
		if err != nil {
			t.Fatalf("batch: %v", err)
		}

		for _, algo := range []linearAlgorithm{AMP{}, AMP{Policy: FirstN}} {
			res, err := FindAlternatives(algo, list, batch, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: %v", algo.Name(), err)
			}
			budget := req.Budget()
			for i, w := range res.Alternatives[j.Name] {
				// Tiny relative slack: Window.Cost re-sums the placement
				// costs in a different order than the budget check did.
				if float64(w.Cost()) > float64(budget)*(1+1e-9)+1e-9 {
					t.Fatalf("%s alternative %d cost %v exceeds S=ρ·C·t·N=%v\n%v",
						algo.Name(), i, w.Cost(), budget, w)
				}
			}
		}

		res, err := FindAlternatives(ALP{}, list, batch, SearchOptions{})
		if err != nil {
			t.Fatalf("ALP: %v", err)
		}
		for i, w := range res.Alternatives[j.Name] {
			if w.MaxSlotPrice() > req.MaxPrice {
				t.Fatalf("ALP alternative %d slot price %v exceeds per-slot cap C=%v\n%v",
					i, w.MaxSlotPrice(), req.MaxPrice, w)
			}
		}
	})
}
