package main

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
	"ecosched/internal/workload"
)

// runPareto prints the full (time, cost) trade-off frontier for one
// generated scheduling iteration, with the ⟨C, D, T, I⟩ criteria vector of
// Section 2 evaluated against the derived limits for every frontier plan.
func runPareto(seed uint64) error {
	rng := sim.NewRNG(seed)
	for attempt := 0; attempt < 50; attempt++ {
		sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), rng.Split())
		if err != nil {
			return err
		}
		search, err := alloc.FindAlternatives(alloc.AMP{}, sc.Slots, sc.Batch, alloc.SearchOptions{})
		if err != nil {
			return err
		}
		if !search.AllJobsCovered(sc.Batch) {
			continue
		}
		alts := dp.Alternatives(search.Alternatives)
		// The sparse engine derives both limits in one backward pass.
		fr, err := dp.NewFrontier(sc.Batch, alts)
		if err != nil {
			return err
		}
		limits, err := fr.Limits()
		if err != nil {
			continue
		}
		front, err := dp.ParetoFront(sc.Batch, alts)
		if err != nil {
			return err
		}
		vectors := dp.FrontierVectors(front, limits)
		fmt.Printf("Section 2 — criteria-vector frontier for one iteration (%d jobs, %d slots, %d alternatives)\n",
			sc.Batch.Len(), sc.Slots.Len(), search.TotalAlternatives())
		fmt.Printf("limits: T* = %v, B* = %v\n\n", limits.Quota, limits.Budget)
		t := stats.NewTable("#", "T(s)", "C(s)", "D = B*-C", "I = T*-T", "within limits")
		for i, v := range vectors {
			within := "yes"
			if v.BudgetSlack < 0 || v.TimeSlack < 0 {
				within = "no"
			}
			t.AddRow(i+1, int64(v.Time), float64(v.Cost), float64(v.BudgetSlack), int64(v.TimeSlack), within)
		}
		fmt.Print(t.String())
		wt, err := dp.WeightedSum(sc.Batch, alts, 1, 0.1)
		if err == nil {
			fmt.Printf("\nweighted pick (w_T=1, w_C=0.1): T=%v C=%v\n", wt.TotalTime, wt.TotalCost)
		}
		return nil
	}
	return fmt.Errorf("no fully-covered scenario found in 50 attempts")
}
