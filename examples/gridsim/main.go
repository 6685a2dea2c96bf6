// Gridsim: the full VO loop on a simulated non-dedicated grid. Three
// clusters of heterogeneous nodes run their owners' local tasks; global jobs
// arrive in waves; the metascheduler runs periodic scheduling rounds —
// publishing vacant slots, searching alternatives with AMP, optimizing the
// combination under the VO budget, committing reservations, and postponing
// what does not fit.
//
//	go run ./examples/gridsim [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"

	"ecosched"
	"ecosched/internal/gridsim"
)

func main() {
	seed := flag.Uint64("seed", 7, "RNG seed")
	flag.Parse()
	rng := ecosched.NewRNG(*seed)

	// Three clusters, four nodes each; performance and price follow the
	// paper's exponential pricing curve.
	pricing := ecosched.PaperPricing()
	var nodes []*ecosched.Node
	for c := 0; c < 3; c++ {
		for i := 0; i < 4; i++ {
			perf := rng.FloatBetween(1, 3)
			nodes = append(nodes, &ecosched.Node{
				Name:        fmt.Sprintf("c%d-n%d", c+1, i+1),
				Performance: perf,
				Price:       pricing.Sample(rng, perf),
				Domain:      fmt.Sprintf("cluster%d", c+1),
			})
		}
	}
	pool, err := ecosched.NewPool(nodes)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := ecosched.NewGrid(pool)
	if err != nil {
		log.Fatal(err)
	}
	// Owners' local flows make the resources non-dedicated.
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 150, DurMin: 30, DurMax: 120}, 0, 3000, rng.Split()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid ready: %d nodes, local utilization %.0f%%\n", pool.Size(), 100*grid.Utilization(3000))

	sched, err := ecosched.NewScheduler(ecosched.SchedulerConfig{
		Algorithm:        ecosched.AMP{},
		Policy:           ecosched.MinimizeTimePolicy,
		Horizon:          1000,
		Step:             250,
		MaxBatch:         5,
		MaxPostponements: 4,
	}, grid)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := ecosched.NewService(sched)
	if err != nil {
		log.Fatal(err)
	}

	// Jobs arrive in two waves; the second wave lands mid-session.
	submit := func(wave, count int) {
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("w%d-job%d", wave, i+1)
			err := svc.Submit(&ecosched.Job{
				Name:     name,
				Priority: wave*10 + i,
				Request: ecosched.ResourceRequest{
					Nodes:          rng.IntBetween(1, 4),
					Time:           ecosched.Duration(rng.IntBetween(60, 160)),
					MinPerformance: rng.FloatBetween(1, 2),
					MaxPrice:       pricing.BasePrice(1.5) * ecosched.Money(rng.FloatBetween(1.0, 1.4)),
				},
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	submit(1, 6)
	var totalPlaced, totalDropped int
	for it := 0; it < 8; it++ {
		if it == 2 {
			submit(2, 5)
		}
		rep, err := svc.Tick()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-5v batch=%d placed=%d postponed=%d dropped=%d (queue %d, alternatives %d)\n",
			rep.Now, rep.BatchSize, len(rep.Placed), len(rep.Postponed), len(rep.Dropped),
			sched.QueueLength(), rep.Alternatives)
		for _, p := range rep.Placed {
			fmt.Printf("        %-9s start=%v len=%v cost=%v nodes=%v\n",
				p.Job.Name, p.Window.Window.Start(), p.Window.Window.Length(),
				p.Window.Window.Cost(), p.Window.Window.NodeLabels())
		}
		totalPlaced += len(rep.Placed)
		totalDropped += len(rep.Dropped)
	}
	fmt.Printf("session done: %d placed, %d dropped, %d still queued; grid utilization %.0f%%\n",
		totalPlaced, totalDropped, sched.QueueLength(), grid.Utilization(3000))
	byDomain, total := grid.OwnerIncome()
	fmt.Printf("owner income: total %v", total)
	for _, d := range pool.Domains() {
		fmt.Printf("  %s=%v", d, byDomain[d])
	}
	fmt.Println()
}
