package strategy

import (
	"errors"
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/fault"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
	"ecosched/internal/workload"
)

// failureProb is the robustness study's per-node failure probability within
// the horizon.
const failureProb = 0.25

// RobustnessConfig parameterizes the failure-injection study. Each iteration
// draws its input from the paper's Section 5 generators.
type RobustnessConfig struct {
	// Seed drives scenario generation and failure sampling.
	Seed uint64
	// Iterations is the number of scheduling iterations simulated.
	Iterations int
}

// RobustnessPoint aggregates one algorithm's behaviour under failures.
type RobustnessPoint struct {
	Algorithm string
	// Kept counts iterations where the algorithm covered every job.
	Kept int
	// CompletionRate and PrimaryRate aggregate over kept iterations.
	CompletionRate stats.Online
	PrimaryRate    stats.Online
	// RedundancyPerJob is the mean contingency count available per job.
	RedundancyPerJob stats.Online
	// MeanDelay is the average fallback start slip over completed jobs.
	MeanDelay stats.Online
}

// RobustnessStudy quantifies the operational value of the multi-variant
// search: with node failures injected, a job survives iff one of its
// alternative windows avoids every failed node — so AMP's larger alternative
// sets should translate directly into higher batch completion rates than
// ALP's. This is the extension experiment DESIGN.md lists for the paper's
// Section 7 future work.
func RobustnessStudy(cfg RobustnessConfig) (alp, amp *RobustnessPoint, err error) {
	if cfg.Iterations <= 0 {
		return nil, nil, fmt.Errorf("strategy: non-positive iterations %d", cfg.Iterations)
	}
	slotGen, jobGen := workload.PaperSlotGenerator(), workload.PaperJobGenerator()
	alp = &RobustnessPoint{Algorithm: "ALP"}
	amp = &RobustnessPoint{Algorithm: "AMP"}
	root := sim.NewRNG(cfg.Seed)
	for it := 0; it < cfg.Iterations; it++ {
		iterRNG := sim.NewRNG(root.Uint64() ^ uint64(it))
		sc, err := workload.GenerateScenario(slotGen, jobGen, iterRNG)
		if err != nil {
			return nil, nil, err
		}
		// One failure trace per iteration, shared by both algorithms.
		var horizon sim.Time
		for _, s := range sc.Slots.Slots() {
			if s.End() > horizon {
				horizon = s.End()
			}
		}
		failures, err := sampleFailures(sc.Pool, failureProb, horizon, iterRNG.Split())
		if err != nil {
			return nil, nil, err
		}

		for _, run := range []struct {
			algo  alloc.Algorithm
			point *RobustnessPoint
		}{
			{alloc.ALP{}, alp},
			{alloc.AMP{}, amp},
		} {
			if err := runOnce(run.algo, sc, failures, run.point); err != nil {
				return nil, nil, err
			}
		}
	}
	return alp, amp, nil
}

// sampleFailures draws a fail plan: each node of the pool fails
// independently with probability p, at a uniform time within [0, horizon).
func sampleFailures(pool *resource.Pool, p float64, horizon sim.Time, rng *sim.RNG) (*fault.Plan, error) {
	var events []fault.Event
	for _, n := range pool.Nodes() {
		if rng.Bool(p) {
			events = append(events, fault.Event{At: sim.Time(rng.IntN(int(horizon))), Kind: fault.Fail, Node: n.Label()})
		}
	}
	return fault.NewPlan(events...)
}

func runOnce(algo alloc.Algorithm, sc *workload.Scenario, failures *fault.Plan, point *RobustnessPoint) error {
	search, err := alloc.FindAlternatives(algo, sc.Slots, sc.Batch, alloc.SearchOptions{})
	if err != nil {
		return err
	}
	if !search.AllJobsCovered(sc.Batch) {
		return nil
	}
	alts := dp.Alternatives(search.Alternatives)
	limits, err := dp.ComputeLimits(sc.Batch, alts)
	if err != nil {
		var inf *dp.ErrInfeasible
		if errors.As(err, &inf) {
			return nil
		}
		return err
	}
	plan, err := dp.MinimizeTime(sc.Batch, alts, limits.Budget)
	if err != nil {
		var inf *dp.ErrInfeasible
		if errors.As(err, &inf) {
			return nil
		}
		return err
	}
	st, err := Build(plan, search)
	if err != nil {
		return err
	}
	rep, err := st.Execute(failures)
	if err != nil {
		return err
	}
	point.Kept++
	point.CompletionRate.Add(rep.CompletionRate())
	if len(rep.Outcomes) > 0 {
		point.PrimaryRate.Add(float64(rep.PrimaryCompleted) / float64(len(rep.Outcomes)))
	}
	point.RedundancyPerJob.Add(float64(st.TotalRedundancy()) / float64(len(st.Jobs)))
	if rep.Completed > 0 {
		point.MeanDelay.Add(float64(rep.TotalDelay) / float64(rep.Completed))
	}
	return nil
}

// RenderRobustness prints the study as a table.
func RenderRobustness(alp, amp *RobustnessPoint) string {
	t := stats.NewTable("metric", "ALP", "AMP")
	t.AddRow("kept iterations", alp.Kept, amp.Kept)
	t.AddRow("completion rate", alp.CompletionRate.Mean(), amp.CompletionRate.Mean())
	t.AddRow("primary survival", alp.PrimaryRate.Mean(), amp.PrimaryRate.Mean())
	t.AddRow("contingencies per job", alp.RedundancyPerJob.Mean(), amp.RedundancyPerJob.Mean())
	t.AddRow("mean fallback delay", alp.MeanDelay.Mean(), amp.MeanDelay.Mean())
	return fmt.Sprintf("node failure probability %.2f\n", failureProb) + t.String()
}
