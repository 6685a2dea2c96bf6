package strategy

import (
	"fmt"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/fault"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// Validate checks that all versions across the whole strategy are pairwise
// disjoint — the property that makes any fallback switch conflict-free.
func (s *Strategy) Validate() error {
	var used []slot.Slot
	for _, js := range s.Jobs {
		if len(js.Versions) == 0 {
			return fmt.Errorf("strategy: job %s has no versions", js.Job.Name)
		}
		if !js.Versions[0].Primary {
			return fmt.Errorf("strategy: job %s first version is not primary", js.Job.Name)
		}
		for _, v := range js.Versions {
			if err := v.Window.Validate(); err != nil {
				return fmt.Errorf("strategy: job %s: %w", js.Job.Name, err)
			}
			for _, p := range v.Window.Placements {
				used = append(used, slot.Slot{Node: p.Source.Node, Price: p.Source.Price, Span: p.Used})
			}
		}
	}
	if slot.NewList(used).OverlapOnSameNode() {
		return fmt.Errorf("strategy: two versions overlap on one node")
	}
	return nil
}

// buildStrategy assembles a strategy on a three-node environment with
// multiple alternatives per job.
func buildStrategy(t *testing.T) (*Strategy, *resource.Pool) {
	t.Helper()
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 1},
		{Name: "b", Performance: 1, Price: 2},
		{Name: "c", Performance: 1, Price: 3},
	})
	var slots []slot.Slot
	for _, n := range pool.Nodes() {
		slots = append(slots, slot.New(n, 0, 600))
	}
	list := slot.NewList(slots)
	batch := job.MustNewBatch([]*job.Job{
		{Name: "j1", Priority: 1, Request: job.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 5}},
		{Name: "j2", Priority: 2, Request: job.ResourceRequest{
			Nodes: 1, Time: 80, MinPerformance: 1, MaxPrice: 5}},
	})
	search, err := alloc.FindAlternatives(alloc.AMP{}, list, batch, alloc.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alts := dp.Alternatives(search.Alternatives)
	limits, err := dp.ComputeLimits(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dp.MinimizeTime(batch, alts, limits.Budget)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(plan, search)
	if err != nil {
		t.Fatal(err)
	}
	return st, pool
}

func TestBuildStrategy(t *testing.T) {
	st, _ := buildStrategy(t)
	if err := st.Validate(); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("jobs: %d", len(st.Jobs))
	}
	for _, js := range st.Jobs {
		if !js.Versions[0].Primary {
			t.Errorf("%s: first version must be primary", js.Job.Name)
		}
		if js.Redundancy() == 0 {
			t.Errorf("%s: expected contingencies on an idle 3-node grid", js.Job.Name)
		}
	}
	if st.TotalRedundancy() == 0 {
		t.Error("no redundancy at all")
	}
}

func TestBuildRejectsNil(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestFallbackOrdering(t *testing.T) {
	early, _ := buildStrategy(t)
	for _, js := range early.Jobs {
		spares := js.Versions[1:]
		for i := 1; i < len(spares); i++ {
			if spares[i].Window.Start() < spares[i-1].Window.Start() {
				t.Errorf("%s: earliest-first order violated", js.Job.Name)
			}
		}
	}
}

// execute runs the strategy against a plan parsed from text.
func execute(t *testing.T, st *Strategy, plan string) *Report {
	t.Helper()
	p, err := fault.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestExecuteNoFailures(t *testing.T) {
	st, _ := buildStrategy(t)
	rep, err := st.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.PrimaryCompleted != 2 {
		t.Errorf("no failures: completed %d primary %d", rep.Completed, rep.PrimaryCompleted)
	}
	if rep.CompletionRate() != 1 {
		t.Errorf("completion rate %v", rep.CompletionRate())
	}
	if rep.TotalDelay != 0 || rep.TotalExtraCost != 0 {
		t.Error("no penalties expected without failures")
	}
}

func TestExecuteFallbackOnFailure(t *testing.T) {
	st, _ := buildStrategy(t)
	// Kill the primary of the first job: fail its node at time 0.
	primary := st.Jobs[0].Versions[0].Window
	failed := primary.Placements[0].Source.Node
	rep := execute(t, st, "fail@0:"+failed.Label())
	out := rep.Outcomes[0]
	if !out.Completed {
		t.Fatal("job should fall back, not fail")
	}
	if out.VersionUsed == 0 {
		t.Error("primary should have been killed")
	}
	if out.Window.UsesNode(failed.Label()) {
		t.Error("fallback uses the failed node")
	}
}

func TestExecuteFailureAfterCompletionIsHarmless(t *testing.T) {
	st, _ := buildStrategy(t)
	primary := st.Jobs[0].Versions[0].Window
	node := primary.Placements[0].Source.Node
	// Failure strikes exactly at the placement end: the task already
	// finished.
	rep := execute(t, st, fmt.Sprintf("fail@%d:%s", primary.Placements[0].Used.End, node.Label()))
	if rep.Outcomes[0].VersionUsed != 0 {
		t.Error("failure after completion must not kill the primary")
	}
}

func TestExecuteTotalLoss(t *testing.T) {
	st, pool := buildStrategy(t)
	// Fail every node at time 0: nothing survives.
	var events []fault.Event
	for _, n := range pool.Nodes() {
		events = append(events, fault.Event{At: 0, Kind: fault.Fail, Node: n.Label()})
	}
	rep, err := st.Execute(&fault.Plan{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 0 {
		t.Errorf("completed %d with every node dead", rep.Completed)
	}
	for _, out := range rep.Outcomes {
		if out.VersionUsed != -1 || out.Window != nil {
			t.Error("failed job should report no version")
		}
	}
	if rep.CompletionRate() != 0 {
		t.Error("completion rate should be 0")
	}
}

// TestExecuteRejectsNonFailEvents pins that a strategy only understands
// fail events: recover and revoke have no meaning for windows that reserve
// nothing, so a plan carrying one is an error rather than silently ignored.
func TestExecuteRejectsNonFailEvents(t *testing.T) {
	st, _ := buildStrategy(t)
	for _, plan := range []string{"recover@0:a", "fail@0:a;revoke@10:b:20-30"} {
		p, err := fault.ParsePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Execute(p); err == nil {
			t.Errorf("%s: accepted", plan)
		}
	}
}

func TestSampleFailures(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 1},
		{Name: "b", Performance: 1, Price: 1},
	})
	rng := sim.NewRNG(5)
	plan, err := sampleFailures(pool, 0, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 {
		t.Error("p=0 should produce no failures")
	}
	plan, err = sampleFailures(pool, 1, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 2 {
		t.Errorf("p=1 should fail every node, got %d", plan.Len())
	}
	for _, e := range plan.Events {
		if e.Kind != fault.Fail || e.At < 0 || e.At >= 100 {
			t.Errorf("event %v: want a fail within the horizon", e)
		}
	}
}

func TestRobustnessStudyAMPMoreRobust(t *testing.T) {
	alp, amp, err := RobustnessStudy(RobustnessConfig{Seed: 42, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	if alp.Kept == 0 || amp.Kept == 0 {
		t.Fatal("study kept nothing")
	}
	// The extension's headline: more alternatives → more redundancy →
	// higher completion under failures.
	if !(amp.RedundancyPerJob.Mean() > alp.RedundancyPerJob.Mean()) {
		t.Errorf("AMP redundancy %v not above ALP %v",
			amp.RedundancyPerJob.Mean(), alp.RedundancyPerJob.Mean())
	}
	if !(amp.CompletionRate.Mean() >= alp.CompletionRate.Mean()) {
		t.Errorf("AMP completion %v below ALP %v",
			amp.CompletionRate.Mean(), alp.CompletionRate.Mean())
	}
	out := RenderRobustness(alp, amp)
	if out == "" {
		t.Error("render empty")
	}
}

func TestStrategyValidateCatchesOverlap(t *testing.T) {
	n := &resource.Node{Name: "x", Performance: 1, Price: 1}
	src := slot.New(n, 0, 100)
	w1 := &slot.Window{JobName: "a", Placements: []slot.Placement{
		{Source: src, Used: sim.Interval{Start: 0, End: 50}}}}
	w2 := &slot.Window{JobName: "b", Placements: []slot.Placement{
		{Source: src, Used: sim.Interval{Start: 40, End: 90}}}}
	st := &Strategy{Jobs: []*JobStrategy{
		{Job: &job.Job{Name: "a"}, Versions: []Version{{Window: w1, Primary: true}}},
		{Job: &job.Job{Name: "b"}, Versions: []Version{{Window: w2, Primary: true}}},
	}}
	if st.Validate() == nil {
		t.Error("overlapping versions accepted")
	}
}
