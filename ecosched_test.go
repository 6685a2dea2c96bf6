package ecosched_test

import (
	"bytes"
	"testing"

	"ecosched"
)

// buildEnvironment assembles a small heterogeneous pool with one vacant slot
// per node.
func buildEnvironment(t *testing.T) (*ecosched.Pool, *ecosched.SlotList) {
	t.Helper()
	pool, err := ecosched.NewPool([]*ecosched.Node{
		{Name: "slow-cheap", Performance: 1.0, Price: 1.2},
		{Name: "mid", Performance: 1.6, Price: 2.4},
		{Name: "fast-pricey", Performance: 2.8, Price: 5.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var slots []ecosched.Slot
	for _, n := range pool.Nodes() {
		slots = append(slots, ecosched.NewSlot(n, 0, 500))
	}
	return pool, ecosched.NewSlotList(slots)
}

func buildBatch(t *testing.T) *ecosched.Batch {
	t.Helper()
	batch, err := ecosched.NewBatch([]*ecosched.Job{
		{Name: "render", Priority: 1, Request: ecosched.ResourceRequest{
			Nodes: 2, Time: 100, MinPerformance: 1, MaxPrice: 3}},
		{Name: "index", Priority: 2, Request: ecosched.ResourceRequest{
			Nodes: 1, Time: 60, MinPerformance: 1.5, MaxPrice: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func TestScheduleBatchTimePolicy(t *testing.T) {
	_, list := buildEnvironment(t)
	batch := buildBatch(t)
	res, err := ecosched.ScheduleBatch(ecosched.AMP{}, list, batch, ecosched.MinimizeTimePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Choices) != 2 {
		t.Fatalf("choices: %d", len(res.Plan.Choices))
	}
	if !res.Plan.TotalCost.LessEq(res.Limits.Budget) {
		t.Errorf("plan cost %v exceeds B* %v", res.Plan.TotalCost, res.Limits.Budget)
	}
	if res.Search.TotalAlternatives() < 2 {
		t.Error("search found too few alternatives")
	}
	for _, c := range res.Plan.Choices {
		if err := c.Window.Validate(); err != nil {
			t.Errorf("chosen window invalid: %v", err)
		}
	}
}

func TestScheduleBatchCostPolicy(t *testing.T) {
	_, list := buildEnvironment(t)
	batch := buildBatch(t)
	res, err := ecosched.ScheduleBatch(ecosched.ALP{}, list, batch, ecosched.MinimizeCostPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.TotalTime > res.Limits.Quota {
		t.Errorf("plan time %v exceeds T* %v", res.Plan.TotalTime, res.Limits.Quota)
	}
}

func TestScheduleBatchPostponesOnNoCoverage(t *testing.T) {
	_, list := buildEnvironment(t)
	batch, err := ecosched.NewBatch([]*ecosched.Job{
		{Name: "huge", Priority: 1, Request: ecosched.ResourceRequest{
			Nodes: 9, Time: 50, MinPerformance: 1, MaxPrice: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ecosched.ScheduleBatch(ecosched.AMP{}, list, batch, ecosched.MinimizeTimePolicy); err == nil {
		t.Error("uncoverable batch accepted")
	}
}

func TestGridToSchedulerFlow(t *testing.T) {
	pool, _ := buildEnvironment(t)
	grid, err := ecosched.NewGrid(pool)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ecosched.NewScheduler(ecosched.SchedulerConfig{
		Algorithm: ecosched.AMP{},
		Policy:    ecosched.MinimizeTimePolicy,
		Horizon:   600,
		Step:      50,
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ecosched.NewService(sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range buildBatch(t).Jobs() {
		if err := svc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	var placed int
	for i := 0; i < 5 && sched.QueueLength() > 0; i++ {
		r, err := svc.Tick()
		if err != nil {
			t.Fatal(err)
		}
		placed += len(r.Placed)
	}
	if placed != 2 {
		t.Errorf("placed %d of 2 jobs", placed)
	}
}

func TestGeneratorsThroughFacade(t *testing.T) {
	rng := ecosched.NewRNG(5)
	list, pool, err := ecosched.PaperSlotGenerator().Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	if list.Len() < 120 || pool.Size() != list.Len() {
		t.Error("paper slot generator misbehaved through the facade")
	}
	batch, err := ecosched.PaperJobGenerator().Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() < 3 {
		t.Error("paper job generator misbehaved through the facade")
	}
	res, err := ecosched.FindFirst(ecosched.AMP{}, list, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Error("FindFirst should run one pass")
	}
}

func TestLimitsThroughFacade(t *testing.T) {
	_, list := buildEnvironment(t)
	batch := buildBatch(t)
	search, err := ecosched.FindAlternatives(ecosched.AMP{}, list, batch, ecosched.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	limits, err := ecosched.ComputeLimits(batch, ecosched.Alternatives(search.Alternatives))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ecosched.MinimizeTime(batch, ecosched.Alternatives(search.Alternatives), limits.Budget); err != nil {
		t.Errorf("MinimizeTime under derived budget: %v", err)
	}
	if _, err := ecosched.MinimizeCost(batch, ecosched.Alternatives(search.Alternatives), limits.Quota); err != nil {
		t.Errorf("MinimizeCost under derived quota: %v", err)
	}
}

func TestParetoThroughFacade(t *testing.T) {
	_, list := buildEnvironment(t)
	batch := buildBatch(t)
	search, err := ecosched.FindAlternatives(ecosched.AMP{}, list, batch, ecosched.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alts := ecosched.Alternatives(search.Alternatives)
	front, err := ecosched.ParetoFront(batch, alts)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	w, err := ecosched.WeightedSum(batch, alts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalTime < front[0].TotalTime {
		t.Error("weighted pick faster than the fastest frontier point")
	}
}

func TestCodecThroughFacade(t *testing.T) {
	rng := ecosched.NewRNG(3)
	list, pool, err := ecosched.PaperSlotGenerator().Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ecosched.PaperJobGenerator().Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	sc := &ecosched.Scenario{Pool: pool, Slots: list, Batch: batch}
	var buf bytes.Buffer
	if err := ecosched.EncodeScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := ecosched.DecodeScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots.Len() != list.Len() || got.Batch.Len() != batch.Len() {
		t.Error("round trip changed the scenario shape")
	}
}

func TestStrategyThroughFacade(t *testing.T) {
	_, list := buildEnvironment(t)
	batch := buildBatch(t)
	res, err := ecosched.ScheduleBatch(ecosched.AMP{}, list, batch, ecosched.MinimizeTimePolicy)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ecosched.BuildStrategy(res.Plan, res.Search)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletionRate() != 1 {
		t.Errorf("no-failure completion %v", rep.CompletionRate())
	}
	// Kill a primary node; the strategy must still complete via spares.
	victim := res.Plan.Choices[0].Window.Placements[0].Source.Node
	plan, err := ecosched.ParseFaultPlan("fail@0:" + victim.Label())
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = st.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Error("nothing survived a single node failure on an idle pool")
	}
}

func TestTraceThroughFacade(t *testing.T) {
	pool, _ := buildEnvironment(t)
	grid, err := ecosched.NewGrid(pool)
	if err != nil {
		t.Fatal(err)
	}
	rec := ecosched.NewTraceRecorder(64)
	sched, err := ecosched.NewScheduler(ecosched.SchedulerConfig{
		Algorithm: ecosched.AMP{},
		Policy:    ecosched.MinimizeTimePolicy,
		Horizon:   600,
		Step:      50,
		Trace:     rec,
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ecosched.NewService(sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range buildBatch(t).Jobs() {
		if err := svc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := svc.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) == 0 {
		t.Error("iteration placed no jobs")
	}
	if len(rec.Events()) == 0 {
		t.Error("trace recorded nothing")
	}
}

func TestNodeRequirementsThroughFacade(t *testing.T) {
	gpu := &ecosched.Node{Name: "gpu", Performance: 2, Price: 3,
		Attrs: ecosched.NodeAttributes{RAMMB: 8192, OS: "linux", Tags: []string{"gpu"}}}
	plain := &ecosched.Node{Name: "plain", Performance: 2, Price: 1}
	if _, err := ecosched.NewPool([]*ecosched.Node{gpu, plain}); err != nil {
		t.Fatal(err)
	}
	list := ecosched.NewSlotList([]ecosched.Slot{
		ecosched.NewSlot(gpu, 0, 300),
		ecosched.NewSlot(plain, 0, 300),
	})
	j := &ecosched.Job{Name: "ml", Priority: 1, Request: ecosched.ResourceRequest{
		Nodes: 1, Time: 50, MinPerformance: 1, MaxPrice: 5,
		Needs: ecosched.NodeRequirements{Tags: []string{"gpu"}},
	}}
	batch, err := ecosched.NewBatch([]*ecosched.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ecosched.FindFirst(ecosched.AMP{}, list, batch)
	if err != nil {
		t.Fatal(err)
	}
	if ws := res.Alternatives["ml"]; len(ws) != 1 || !ws[0].UsesNode("gpu") {
		t.Error("attribute requirements not honored through the facade")
	}
}
