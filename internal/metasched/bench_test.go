package metasched_test

import (
	"fmt"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// benchStoreSession plays one complete seeded session on a grid large enough
// that the published vacant-slot list holds on the order of 100k slots: 1000
// nodes, each carrying ~100 short local bookings inside the 6000-tick
// horizon, so every node contributes ~100 vacant fragments. It returns the
// size of the vacant list at the final horizon so the benchmark can report
// the scale it actually ran at.
func benchStoreSession(b *testing.B, seed uint64, service bool, reg *metrics.Registry) int {
	b.Helper()
	rng := sim.NewRNG(seed)
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, 0, 1000)
	for i := 0; i < 1000; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
		})
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		b.Fatal(err)
	}
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 30, DurMin: 20, DurMax: 40}, 0, 7500, rng.Split()); err != nil {
		b.Fatal(err)
	}
	cfg := metasched.Config{
		Algorithm:        alloc.AMP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          6000,
		Step:             150,
		MaxBatch:         4,
		MaxPostponements: 3,
		Parallelism:      1,
		Metrics:          reg,
	}
	cfg.Search.MaxAlternativesPerJob = 10
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		b.Fatal(err)
	}
	var svc *metasched.Service
	if service {
		svc, err = metasched.NewService(sched, metasched.ServiceConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		j := &job.Job{
			Name:     fmt.Sprintf("job%d", i+1),
			Priority: i + 1,
			Request: job.ResourceRequest{
				Nodes:          rng.IntBetween(1, 3),
				Time:           sim.Duration(rng.IntBetween(30, 90)),
				MinPerformance: rng.FloatBetween(1, 1.8),
				MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.0, 1.4)),
			},
		}
		if svc != nil {
			err = svc.Submit(j)
		} else {
			err = sched.Submit(j)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for it := 0; it < 3 && sched.QueueLength() > 0; it++ {
		if svc != nil {
			_, err = svc.Tick()
		} else {
			_, err = sched.RunIteration()
		}
		if err != nil {
			b.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
	}
	vacant, err := grid.VacantSlots(grid.Now() + sim.Time(cfg.Horizon))
	if err != nil {
		b.Fatal(err)
	}
	return vacant.Len()
}

// BenchmarkLiveStoreSession is the live store's scaling benchmark: a full
// 1000-node session whose vacant-slot list holds ~100k slots. It also
// enforces the steady-state contract at scale — the store is built exactly
// once per session (gridsim/store/rebuilds_total), the search adopts the
// published view instead of building an index
// (alloc/AMP/index/rebuilds_total stays 0), and the self-healing reset never
// fires.
func BenchmarkLiveStoreSession(b *testing.B) {
	slots := 0
	for i := 0; i < b.N; i++ {
		reg := metrics.New()
		slots = benchStoreSession(b, uint64(i%10+1), false, reg)
		snap := reg.Snapshot()
		if n := snap.Counter("gridsim/store/rebuilds_total"); n != 1 {
			b.Fatalf("gridsim/store/rebuilds_total = %d, want exactly 1", n)
		}
		if n := snap.Counter("gridsim/store/incoherent_drops_total"); n != 0 {
			b.Fatalf("gridsim/store/incoherent_drops_total = %d, want 0", n)
		}
		if n := snap.Counter("alloc/AMP/index/rebuilds_total"); n != 0 {
			b.Fatalf("alloc/AMP/index/rebuilds_total = %d, want 0: the search must adopt the store's index", n)
		}
	}
	b.ReportMetric(float64(slots), "slots/op")
}

// BenchmarkServiceSession is BenchmarkLiveStoreSession's service-mode twin:
// the identical 1000-node / ~100k-slot session driven through the
// continuous-service event loop (Submit and Tick enqueue evaluations; each
// round plans against the epoch-stamped snapshot and applies serially)
// instead of batch RunIteration. The overhead of the eval queue and the
// Plan bookkeeping is the difference between the two benchmarks; the
// schedules themselves are byte-identical. The service sub-benchmark also
// enforces the event-loop contract at scale — every round consumed its due
// evaluations (the queue ends empty) and no plan was rejected on the
// undisturbed run.
func BenchmarkServiceSession(b *testing.B) {
	for _, mode := range []struct {
		name    string
		service bool
	}{
		{"service", true},
		{"batch", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			slots := 0
			for i := 0; i < b.N; i++ {
				reg := metrics.New()
				slots = benchStoreSession(b, uint64(i%10+1), mode.service, reg)
				if !mode.service {
					continue
				}
				snap := reg.Snapshot()
				if n := snap.Counter("metasched/service/rounds_total"); n == 0 {
					b.Fatal("metasched/service/rounds_total = 0: the service loop never ran")
				}
				if n := snap.Gauge("metasched/service/eval_queue_depth"); n != 0 {
					b.Fatalf("metasched/service/eval_queue_depth = %d, want 0 after the session", n)
				}
				if n := snap.Counter("metasched/plan/windows_stale_total"); n != 0 {
					b.Fatalf("metasched/plan/windows_stale_total = %d, want 0 on an undisturbed run", n)
				}
			}
			b.ReportMetric(float64(slots), "slots/op")
		})
	}
}
