package metasched_test

import (
	"fmt"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/trace"
)

// TestSoakSession runs a long metascheduler session with every dynamic
// feature enabled at once — sliding local arrivals, decision tracing, a
// mid-session node failure and a later repair, and job waves — and checks
// the global invariants after every iteration:
//
//   - no two reservations overlap on a node;
//   - no reservation sits on a node that was failed when it was booked;
//   - every submitted job is, at all times, exactly one of: queued, placed,
//     or dropped.
func TestSoakSession(t *testing.T) {
	rng := sim.NewRNG(2024)
	pricing := resource.PaperPricing()
	var nodes []*resource.Node
	for i := 0; i < 10; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
		})
	}
	pool := resource.MustNewPool(nodes)
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(4096)
	sched, err := metasched.New(metasched.Config{
		Algorithm:        alloc.AMP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          900,
		Step:             150,
		MaxBatch:         4,
		MaxPostponements: 6,
		Trace:            rec,
		LocalArrivals: &metasched.LocalArrivals{
			Load: gridsim.LocalLoad{MeanGap: 200, DurMin: 30, DurMax: 100},
			RNG:  rng.Split(),
		},
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc := service(t, sched)

	submitted := map[string]bool{}
	submit := func(wave, count int) {
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("w%d-j%d", wave, i)
			err := svc.Submit(&job.Job{
				Name:     name,
				Priority: wave*100 + i,
				Request: job.ResourceRequest{
					Nodes:          rng.IntBetween(1, 3),
					Time:           sim.Duration(rng.IntBetween(40, 120)),
					MinPerformance: rng.FloatBetween(1, 1.6),
					MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.1, 1.6)),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			submitted[name] = true
		}
	}

	placed := map[string]bool{}
	dropped := map[string]bool{}
	failedAt := map[string]sim.Time{} // node label -> failure time

	checkInvariants := func(iteration int) {
		t.Helper()
		// Same-node reservation overlap.
		for _, n := range pool.Nodes() {
			tasks := grid.Tasks(n.ID)
			for i := 0; i < len(tasks); i++ {
				for k := i + 1; k < len(tasks); k++ {
					if tasks[i].Span.Overlaps(tasks[k].Span) {
						t.Fatalf("iteration %d: overlap on %s: %v vs %v",
							iteration, n.Label(), tasks[i], tasks[k])
					}
				}
			}
		}
		// Reservations on failed nodes: a node failed at time F must hold
		// no non-local booking that ends after F.
		for label, at := range failedAt {
			n := pool.ByName(label)
			for _, tk := range grid.Tasks(n.ID) {
				if !tk.Local && tk.Span.End > at {
					t.Fatalf("iteration %d: reservation %s survives on failed node %s",
						iteration, tk.Name, label)
				}
			}
		}
		// Accounting: every submitted job is queued, placed, or dropped.
		accounted := sched.QueueLength() + len(placed) + len(dropped)
		if accounted != len(submitted) {
			t.Fatalf("iteration %d: %d submitted but %d accounted (queue %d, placed %d, dropped %d)",
				iteration, len(submitted), accounted, sched.QueueLength(), len(placed), len(dropped))
		}
	}

	submit(1, 5)
	for it := 1; it <= 12; it++ {
		switch it {
		case 3:
			submit(2, 4)
		case 5:
			// Fail a node and account for the re-queued jobs.
			victim := "n3"
			requeued, err := svc.HandleNodeFailure(victim)
			if err != nil {
				t.Fatal(err)
			}
			failedAt[victim] = grid.Now()
			for _, name := range requeued {
				delete(placed, name)
			}
		case 8:
			// Repair it: vacancy returns, the failure record no longer
			// constrains future bookings.
			n := pool.ByName("n3")
			if err := grid.RecoverNode(n.ID); err != nil {
				t.Fatal(err)
			}
			delete(failedAt, "n3")
		case 9:
			submit(3, 3)
		}
		rep, err := svc.Tick()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Placed {
			placed[p.Job.Name] = true
		}
		for _, name := range rep.Dropped {
			dropped[name] = true
		}
		checkInvariants(it)
	}

	if len(placed) == 0 {
		t.Fatal("soak session placed nothing")
	}
	if len(rec.Events()) == 0 {
		t.Fatal("trace empty after a 12-iteration session")
	}
	// The trace must contain commits for placed jobs.
	if kinds, _ := eventCounts(rec); kinds[trace.Committed] < len(placed) {
		t.Errorf("trace commits %d < placed %d", kinds[trace.Committed], len(placed))
	}
	t.Logf("soak: %d submitted, %d placed, %d dropped, %d queued, %d trace events",
		len(submitted), len(placed), len(dropped), sched.QueueLength(), len(rec.Events()))
}
