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

// diffSessionTranscript plays one complete seeded metascheduler session and
// renders every externally observable decision — committed windows, plan
// criteria, postponements, drops, requeues after a node failure, and the
// final queue — as a canonical string. Two runs with the same seed must
// produce the same transcript regardless of Parallelism and of Shards (the
// one search loop scans one view or merges several, with any number of
// producers, to the same result).
//
// The seed also selects configuration variety: demand pricing on seeds
// divisible by 3, a live owner-local arrival stream on seeds divisible by 4,
// and a mid-session node failure on seeds divisible by 5, so the differential
// sweep covers repricing, non-dedicated resources, and the re-queue path.
//
// After every iteration the grid's live vacant stores are audited against
// the rebuild oracle (Grid.VacantStoreCoherent), so every session any suite
// plays through here is also a live-store-versus-rebuild differential.
//
// reg, when non-nil, attaches the observability registry to the session —
// the transcript must not change (the metrics-neutrality contract). opts,
// when given, mutate the assembled config last — the sharding differential
// uses this to set Shards.
func diffSessionTranscript(t *testing.T, seed uint64, algo alloc.Algorithm, policy metasched.Policy, parallelism int, reg *metrics.Registry, opts ...func(*metasched.Config)) string {
	t.Helper()
	return sessionTranscript(t, seed, algo, policy, parallelism, reg, false, opts...)
}

// sessionTranscript is the shared body of diffSessionTranscript and the
// service differential: the same seeded scenario driven either through batch
// RunIteration calls or — with service set — through a metasched.Service
// (Submit, Tick and HandleNodeFailure routed via the event loop). The
// determinism contract of the continuous service is exactly that the two
// render byte-identical transcripts.
func sessionTranscript(t *testing.T, seed uint64, algo alloc.Algorithm, policy metasched.Policy, parallelism int, reg *metrics.Registry, service bool, opts ...func(*metasched.Config)) string {
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
		Parallelism:      parallelism,
		Metrics:          reg,
	}
	if seed%3 == 0 {
		cfg.DemandPricing = &metasched.DemandPricing{MinFactor: 0.8, MaxFactor: 1.3}
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
	var svc *metasched.Service
	if service {
		if svc, err = metasched.NewService(sched, metasched.ServiceConfig{Workers: parallelism}); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(j *job.Job) error {
		if svc != nil {
			return svc.Submit(j)
		}
		return sched.Submit(j)
	}
	runIteration := func() (*metasched.IterationReport, error) {
		if svc != nil {
			return svc.Tick()
		}
		return sched.RunIteration()
	}
	failNode := func(label string) ([]string, error) {
		if svc != nil {
			return svc.HandleNodeFailure(label)
		}
		return sched.HandleNodeFailure(label)
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
		if err := submit(j); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	for it := 0; it < 10 && sched.QueueLength() > 0; it++ {
		rep, err := runIteration()
		if err != nil {
			t.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
		fmt.Fprintf(&b, "it=%d now=%v batch=%d alts=%d planT=%v planC=%v pf=%.3f\n",
			rep.Iteration, rep.Now, rep.BatchSize, rep.Alternatives, rep.PlanTime, rep.PlanCost, rep.PriceFactor)
		for _, p := range rep.Placed {
			fmt.Fprintf(&b, "  placed %s -> %v wait=%v\n", p.Job.Name, p.Window.Window, p.WaitTime)
		}
		fmt.Fprintf(&b, "  postponed=%v dropped=%v\n", rep.Postponed, rep.Dropped)
		if err := grid.VacantStoreCoherent(); err != nil {
			t.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
		if it == 1 && seed%5 == 0 {
			requeued, err := failNode("n3")
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
// fires. Seed 7 avoids demand pricing (seeds divisible by 3), which builds an
// index over each repriced view.
func TestLiveStoreSteadyStateNoRebuilds(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		reg := metrics.New()
		diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, parallelism, reg)
		snap := reg.Snapshot()
		if n := snap.Counter("gridsim/store/rebuilds_total"); n != 1 {
			t.Errorf("parallelism %d: gridsim/store/rebuilds_total = %d, want exactly 1", parallelism, n)
		}
		if n := snap.Counter("gridsim/store/incoherent_drops_total"); n != 0 {
			t.Errorf("parallelism %d: gridsim/store/incoherent_drops_total = %d, want 0", parallelism, n)
		}
		if n := snap.Counter("alloc/AMP/index/rebuilds_total"); n != 0 {
			t.Errorf("parallelism %d: alloc/AMP/index/rebuilds_total = %d, want 0: the search must adopt the store's index", parallelism, n)
		}
		if n := snap.Counter("gridsim/store/snapshots_total"); n == 0 {
			t.Errorf("parallelism %d: no store snapshots recorded — the live path did not serve the session", parallelism)
		}
	}
}
