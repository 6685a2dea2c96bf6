package metasched_test

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// diffSessionTranscript plays one complete seeded metascheduler session
// through a metasched.Service (Submit, Tick and HandleNodeFailure routed via
// the event loop) and renders every externally observable decision —
// committed windows, plan criteria, postponements, drops, requeues after a
// node failure, and the final queue — as a canonical string. Two runs with
// the same seed must produce the same transcript regardless of Shards (the
// one search loop scans one view or merges several to the same result).
//
// The seed also selects configuration variety: a live owner-local arrival
// stream on seeds divisible by 4 and a mid-session node failure on seeds
// divisible by 5, so the differential sweep covers non-dedicated resources
// and the re-queue path.
//
// After every round the grid's live vacant stores are audited against the
// rebuild oracle (Grid.VacantStoreCoherent), so every session any suite
// plays through here is also a live-store-versus-rebuild differential.
//
// reg, when non-nil, attaches the observability registry to the session —
// the transcript must not change (the metrics-neutrality contract). opts,
// when given, mutate the assembled config last — the sharding differential
// uses this to set Shards.
func diffSessionTranscript(t *testing.T, seed uint64, algo alloc.Algorithm, policy metasched.Policy, reg *metrics.Registry, opts ...func(*metasched.Config)) string {
	t.Helper()
	rng := sim.NewRNG(seed)
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, 0, 12)
	for i := 0; i < 12; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
		})
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 150, DurMin: 30, DurMax: 120}, 0, 4000, rng.Split()); err != nil {
		t.Fatal(err)
	}
	cfg := metasched.Config{
		Algorithm:        algo,
		Policy:           policy,
		Horizon:          1200,
		Step:             150,
		MaxBatch:         4,
		MaxPostponements: 3,
		Metrics:          reg,
	}
	if seed%4 == 0 {
		cfg.LocalArrivals = &metasched.LocalArrivals{
			Load: gridsim.LocalLoad{MeanGap: 200, DurMin: 20, DurMax: 90},
			RNG:  rng.Split(),
		}
	}
	for _, o := range opts {
		o(&cfg)
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		j := &job.Job{
			Name:     fmt.Sprintf("job%d", i+1),
			Priority: i + 1,
			Request: job.ResourceRequest{
				Nodes:          rng.IntBetween(1, 3),
				Time:           sim.Duration(rng.IntBetween(50, 150)),
				MinPerformance: rng.FloatBetween(1, 1.8),
				MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.0, 1.4)),
			},
		}
		if err := svc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	for it := 0; it < 10 && sched.QueueLength() > 0; it++ {
		rep, err := svc.Tick()
		if err != nil {
			t.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
		fmt.Fprintf(&b, "it=%d now=%v batch=%d alts=%d planT=%v planC=%v\n",
			rep.Iteration, rep.Now, rep.BatchSize, rep.Alternatives, rep.PlanTime, rep.PlanCost)
		for _, p := range rep.Placed {
			fmt.Fprintf(&b, "  placed %s -> %v wait=%v\n", p.Job.Name, p.Window.Window, p.WaitTime)
		}
		fmt.Fprintf(&b, "  postponed=%v dropped=%v\n", rep.Postponed, rep.Dropped)
		if err := grid.VacantStoreCoherent(); err != nil {
			t.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
		if it == 1 && seed%5 == 0 {
			requeued, err := svc.HandleNodeFailure("n3")
			if err != nil {
				t.Fatalf("seed %d: node failure: %v", seed, err)
			}
			fmt.Fprintf(&b, "  failure n3 requeued=%v\n", requeued)
		}
	}
	fmt.Fprintf(&b, "queue=%d\n", sched.QueueLength())
	return b.String()
}

// TestLiveStoreSteadyStateNoRebuilds pins the live store's performance
// contract on a real session: the store is built exactly once (the lazy
// first publication), every later iteration applies the committed windows
// and the sliding horizon as deltas, the search adopts the published view
// instead of building an index of its own, and the self-healing reset never
// fires.
func TestLiveStoreSteadyStateNoRebuilds(t *testing.T) {
	reg := metrics.New()
	diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, reg)
	snap := reg.Snapshot()
	if n := snap.Counter("gridsim/store/rebuilds_total"); n != 1 {
		t.Errorf("gridsim/store/rebuilds_total = %d, want exactly 1", n)
	}
	if n := snap.Counter("gridsim/store/incoherent_drops_total"); n != 0 {
		t.Errorf("gridsim/store/incoherent_drops_total = %d, want 0", n)
	}
	if n := snap.Counter("alloc/AMP/index/rebuilds_total"); n != 0 {
		t.Errorf("alloc/AMP/index/rebuilds_total = %d, want 0: the search must adopt the store's index", n)
	}
	if n := snap.Counter("gridsim/store/snapshots_total"); n == 0 {
		t.Error("no store snapshots recorded — the live path did not serve the session")
	}
}

// TestServiceMetricsNeutralityAndAccounting checks the service's
// observability contract both ways: attaching a registry does not change the
// transcript, and the round instruments account for the session — every
// round was counted and the plan applies all took the fast path on an
// undisturbed single-writer run.
func TestServiceMetricsNeutralityAndAccounting(t *testing.T) {
	bare := diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, nil)
	reg := metrics.New()
	instrumented := diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, reg)
	if bare != instrumented {
		t.Fatalf("metrics changed the service transcript\n--- bare ---\n%s\n--- instrumented ---\n%s", bare, instrumented)
	}
	snap := reg.Snapshot()
	if snap.Counter("metasched/iterations_total") == 0 {
		t.Fatal("no rounds recorded")
	}
	if n := snap.Counter("metasched/plan/applied_revalidated_total"); n != 0 {
		t.Errorf("applied_revalidated_total = %d, want 0: nothing mutated the grid between plan and apply", n)
	}
	if n := snap.Counter("metasched/plan/applied_fastpath_total"); n == 0 {
		t.Error("applied_fastpath_total = 0, want > 0: the epoch fast path never engaged")
	}
	if n := snap.Counter("metasched/plan/windows_stale_total"); n != 0 {
		t.Errorf("windows_stale_total = %d, want 0 on an undisturbed run", n)
	}
}

// TestStoreSteadyStateCopiesNothing pins what handing the search's views
// back buys: on a 200-node, 4-shard session shaped like the churn benchmark
// (≈ 20 000 vacant slots), whose every round commits windows and is followed
// by a node failure (on a node holding a fresh reservation), the previous
// failure's recovery and revocations of other fresh reservations, the live
// store copies no bucket after its first round. Every store write
// between publications — the events' cancellations, drops and restores,
// local arrivals, the clock trim and the horizon extension — lands in a
// bucket the store owns again. The counter is exact, so this holds on any
// machine.
func TestStoreSteadyStateCopiesNothing(t *testing.T) {
	rng := sim.NewRNG(33)
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, 0, 200)
	for i := 0; i < 200; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
			Domain:      fmt.Sprintf("d%d", i%8),
		})
	}
	pool := resource.MustNewPool(nodes)
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	sched, err := metasched.New(metasched.Config{
		Algorithm:        alloc.AMP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          6000,
		Step:             25,
		MaxBatch:         8,
		MaxPostponements: 4,
		Shards:           4,
		Search:           alloc.SearchOptions{MaxAlternativesPerJob: 10},
		Metrics:          reg,
		LocalArrivals: &metasched.LocalArrivals{
			Load: gridsim.LocalLoad{MeanGap: 30, DurMin: 20, DurMax: 40},
			RNG:  rng.Split(),
		},
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc := service(t, sched)

	var copies int64
	failed := ""
	for round := 1; round <= 12; round++ {
		for i := 0; i < 4; i++ {
			if err := svc.Submit(&job.Job{
				Name:     fmt.Sprintf("r%d-j%d", round, i),
				Priority: round*10 + i,
				Request: job.ResourceRequest{
					Nodes:          rng.IntBetween(1, 4),
					Time:           sim.Duration(rng.IntBetween(30, 90)),
					MinPerformance: rng.FloatBetween(1, 1.8),
					MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.0, 1.4)),
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := svc.Tick()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(rep.Placed) < 2 {
			t.Fatalf("round %d placed %d jobs; the session must commit every round", round, len(rep.Placed))
		}
		if failed != "" {
			if err := svc.HandleNodeRecovery(failed); err != nil {
				t.Fatal(err)
			}
		}
		failed = rep.Placed[0].Window.Window.Placements[0].Source.Node.Label()
		if _, err := svc.HandleNodeFailure(failed); err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Placed[1:] {
			victim := p.Window.Window.Placements[0]
			if _, err := svc.HandleRevocation(victim.Source.Node.Label(), victim.Used); err != nil {
				t.Fatal(err)
			}
		}
		if err := grid.VacantStoreCoherent(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		snap := reg.Snapshot()
		now := snap.Counter("gridsim/store/index/bucket_copies_total")
		if round > 1 && now != copies {
			t.Errorf("round %d: the live store copied %d buckets, want 0 after round 1", round, now-copies)
		}
		copies = now
	}
	snap := reg.Snapshot()
	for _, c := range []string{"gridsim/failures_injected_total", "gridsim/fault/node_recoveries_total",
		"gridsim/fault/revoked_reservations_total", "gridsim/reservations_cancelled_total"} {
		if snap.Counter(c) == 0 {
			t.Errorf("%s = 0: the session did not exercise the path it pins", c)
		}
	}
}
