package ecosched_test

import (
	"fmt"

	"ecosched"
)

// ExampleScheduleBatch demonstrates the complete two-phase scheme on a tiny
// deterministic environment: alternative search with AMP, limit derivation,
// and time minimization under the VO budget.
func ExampleScheduleBatch() {
	pool, _ := ecosched.NewPool([]*ecosched.Node{
		{Name: "cpu1", Performance: 1, Price: 2},
		{Name: "cpu2", Performance: 2, Price: 4},
	})
	list := ecosched.NewSlotList([]ecosched.Slot{
		ecosched.NewSlot(pool.Node(0), 0, 400),
		ecosched.NewSlot(pool.Node(1), 0, 400),
	})
	batch, _ := ecosched.NewBatch([]*ecosched.Job{
		{Name: "job1", Priority: 1, Request: ecosched.ResourceRequest{
			Nodes: 2, Time: 100, MinPerformance: 1, MaxPrice: 4}},
	})
	res, err := ecosched.ScheduleBatch(ecosched.AMP{}, list, batch, ecosched.MinimizeTimePolicy)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	w := res.Plan.Choices[0].Window
	fmt.Printf("window [%v, %v) on %d nodes, cost %v\n", w.Start(), w.End(), len(w.Placements), w.Cost())
	// Output:
	// window [0, 100) on 2 nodes, cost 400.00
}

// ExampleFindFirst_alp shows the per-slot price cap in action: the
// expensive node is invisible to ALP.
func ExampleFindFirst_alp() {
	cheap := &ecosched.Node{Name: "cheap", Performance: 1, Price: 2}
	pricey := &ecosched.Node{Name: "pricey", Performance: 1, Price: 9}
	if _, err := ecosched.NewPool([]*ecosched.Node{cheap, pricey}); err != nil {
		fmt.Println("error:", err)
		return
	}
	list := ecosched.NewSlotList([]ecosched.Slot{
		ecosched.NewSlot(cheap, 0, 300),
		ecosched.NewSlot(pricey, 0, 300),
	})
	batch, _ := ecosched.NewBatch([]*ecosched.Job{{Name: "j", Priority: 1, Request: ecosched.ResourceRequest{
		Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 5}}})
	res, err := ecosched.FindFirst(ecosched.ALP{}, list, batch)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ws := res.Alternatives["j"]
	fmt.Println("found:", len(ws) == 1, "node:", ws[0].NodeLabels()[0])
	// Output:
	// found: true node: cheap
}

// ExampleFindFirst_amp shows the whole-job budget: AMP mixes an expensive
// slot into the window as long as the total fits S = C·t·N.
func ExampleFindFirst_amp() {
	cheap := &ecosched.Node{Name: "cheap", Performance: 1, Price: 2}
	pricey := &ecosched.Node{Name: "pricey", Performance: 1, Price: 7}
	if _, err := ecosched.NewPool([]*ecosched.Node{cheap, pricey}); err != nil {
		fmt.Println("error:", err)
		return
	}
	list := ecosched.NewSlotList([]ecosched.Slot{
		ecosched.NewSlot(cheap, 0, 300),
		ecosched.NewSlot(pricey, 0, 300),
	})
	// Budget S = 5·100·2 = 1000 ≥ (2+7)·100.
	j := &ecosched.Job{Name: "j", Priority: 1, Request: ecosched.ResourceRequest{
		Nodes: 2, Time: 100, MinPerformance: 1, MaxPrice: 5}}
	batch, _ := ecosched.NewBatch([]*ecosched.Job{j})
	res, err := ecosched.FindFirst(ecosched.AMP{}, list, batch)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ws := res.Alternatives["j"]
	fmt.Println("found:", len(ws) == 1, "cost:", ws[0].Cost(), "within budget:", ws[0].Cost().LessEq(j.Request.Budget()))
	// Output:
	// found: true cost: 900.00 within budget: true
}

// ExampleService runs the metascheduler as a service: jobs arrive as
// Submit events, and every Tick is one publish → search → optimize → commit
// round over the grid's vacant slots. A job that finds no window within the
// round's horizon is postponed to the next round.
func ExampleService() {
	pool, _ := ecosched.NewPool([]*ecosched.Node{
		{Name: "cpu1", Performance: 1, Price: 2, Domain: "site1"},
		{Name: "cpu2", Performance: 2, Price: 5, Domain: "site2"},
	})
	grid, _ := ecosched.NewGrid(pool)
	// cpu1's owner runs a local task the VO has to schedule around.
	if err := grid.BookLocal("owner-task", "cpu1", 0, 150); err != nil {
		fmt.Println("error:", err)
		return
	}
	sched, _ := ecosched.NewScheduler(ecosched.SchedulerConfig{
		Algorithm:        ecosched.AMP{},
		Policy:           ecosched.MinimizeTimePolicy,
		Horizon:          300,
		Step:             100,
		MaxBatch:         5,
		MaxPostponements: 3,
	}, grid)
	svc, _ := ecosched.NewService(sched)
	for i, nodes := range []int{1, 2, 2} {
		err := svc.Submit(&ecosched.Job{Name: fmt.Sprintf("job%d", i+1), Priority: i + 1,
			Request: ecosched.ResourceRequest{Nodes: nodes, Time: 100, MinPerformance: 1, MaxPrice: 5}})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	for round := 0; round < 5 && sched.QueueLength() > 0; round++ {
		rep, err := svc.Tick()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("t=%v batch=%d postponed=%v\n", rep.Now, rep.BatchSize, rep.Postponed)
		for _, p := range rep.Placed {
			w := p.Window.Window
			fmt.Printf("  %s [%v, %v) on %v, cost %v\n", p.Job.Name, w.Start(), w.End(), w.NodeLabels(), w.Cost())
		}
	}
	_, income := grid.OwnerIncome()
	fmt.Println("owner income:", income)
	// Output:
	// t=0 batch=3 postponed=[job3]
	//   job1 [0, 50) on [cpu2], cost 250.00
	//   job2 [150, 250) on [cpu1 cpu2], cost 450.00
	// t=100 batch=1 postponed=[]
	//   job3 [250, 350) on [cpu1 cpu2], cost 450.00
	// owner income: 1150.00
}

// ExampleBuildStrategy turns the alternatives a batch did not use into
// contingency versions, then plays the strategy against a failure of the
// node hosting the primary window: the job completes on a fallback window
// without re-scheduling.
func ExampleBuildStrategy() {
	pool, _ := ecosched.NewPool([]*ecosched.Node{
		{Name: "cpu1", Performance: 1, Price: 2},
		{Name: "cpu2", Performance: 1, Price: 3},
	})
	list := ecosched.NewSlotList([]ecosched.Slot{
		ecosched.NewSlot(pool.Node(0), 0, 200),
		ecosched.NewSlot(pool.Node(1), 0, 200),
	})
	batch, _ := ecosched.NewBatch([]*ecosched.Job{
		{Name: "job1", Priority: 1, Request: ecosched.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 3}},
	})
	res, err := ecosched.ScheduleBatch(ecosched.AMP{}, list, batch, ecosched.MinimizeTimePolicy)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	st, err := ecosched.BuildStrategy(res.Plan, res.Search)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, v := range st.Jobs[0].Versions {
		fmt.Printf("version %d primary=%v [%v, %v) on %v\n", i, v.Primary, v.Window.Start(), v.Window.End(), v.Window.NodeLabels())
	}
	plan, err := ecosched.ParseFaultPlan("fail@0:cpu1")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := st.Execute(plan)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out := rep.Outcomes[0]
	fmt.Printf("cpu1 fails: completed=%v on version %d, delay %v, extra cost %v\n",
		out.Completed, out.VersionUsed, out.Delay, out.ExtraCost)
	// Output:
	// version 0 primary=true [0, 100) on [cpu1]
	// version 1 primary=false [0, 100) on [cpu2]
	// version 2 primary=false [100, 200) on [cpu1]
	// version 3 primary=false [100, 200) on [cpu2]
	// cpu1 fails: completed=true on version 1, delay 0, extra cost 100.00
}

// ExampleParetoFront lists every efficient (time, cost) combination of a
// batch's alternatives — the Section 2 criteria trade-off — fastest first,
// and picks from it by weighted sums of the two criteria.
func ExampleParetoFront() {
	pool, _ := ecosched.NewPool([]*ecosched.Node{
		{Name: "slow", Performance: 1, Price: 1},
		{Name: "fast", Performance: 2, Price: 4},
	})
	list := ecosched.NewSlotList([]ecosched.Slot{
		ecosched.NewSlot(pool.Node(0), 0, 600),
		ecosched.NewSlot(pool.Node(1), 0, 600),
	})
	batch, _ := ecosched.NewBatch([]*ecosched.Job{
		{Name: "job1", Priority: 1, Request: ecosched.ResourceRequest{
			Nodes: 1, Time: 100, MinPerformance: 1, MaxPrice: 4}},
		{Name: "job2", Priority: 2, Request: ecosched.ResourceRequest{
			Nodes: 1, Time: 80, MinPerformance: 1, MaxPrice: 4}},
	})
	search, err := ecosched.FindAlternatives(ecosched.AMP{}, list, batch, ecosched.SearchOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	alts := ecosched.Alternatives(search.Alternatives)
	front, err := ecosched.ParetoFront(batch, alts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, p := range front {
		fmt.Printf("T=%v C=%v\n", p.TotalTime, p.TotalCost)
	}
	for _, wTime := range []float64{4, 1} {
		p, err := ecosched.WeightedSum(batch, alts, wTime, 1)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("weighted pick (w_T=%v, w_C=1): T=%v C=%v\n", wTime, p.TotalTime, p.TotalCost)
	}
	// Output:
	// T=90 C=360.00
	// T=130 C=280.00
	// T=140 C=260.00
	// T=180 C=180.00
	// weighted pick (w_T=4, w_C=1): T=90 C=360.00
	// weighted pick (w_T=1, w_C=1): T=180 C=180.00
}
