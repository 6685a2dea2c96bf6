package durable_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/durable"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// benchDurableSession plays one complete seeded service session on the
// metasched benchmark grid — 1000 nodes whose local load publishes on the
// order of 100k vacant slots — through the durable wrapper when opts is
// non-nil and through the bare service otherwise. It returns the size of the
// vacant list at the final horizon so the benchmark reports the scale it ran
// at.
func benchDurableSession(b *testing.B, seed uint64, opts *durable.Options, reg *metrics.Registry) int {
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
	}
	cfg.Search.MaxAlternativesPerJob = 10
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	submit := svc.Submit
	tick := svc.Tick
	if opts != nil {
		o := *opts
		o.Metrics = reg
		ds, err := durable.New(svc, o)
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		submit = ds.Submit
		tick = ds.Tick
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
		if err := submit(j); err != nil {
			b.Fatal(err)
		}
	}
	// Exactly three rounds — an empty-queue tick is still a bare periodic
	// round — so every mode journals the same 8+3 transitions.
	for it := 0; it < 3; it++ {
		if _, err := tick(); err != nil {
			b.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
	}
	vacant, err := grid.VacantSlots(grid.Now() + sim.Time(cfg.Horizon))
	if err != nil {
		b.Fatal(err)
	}
	return vacant.Len()
}

// BenchmarkDurableSession prices the durability tax at scale: the identical
// 1000-node / ~100k-slot service session run bare ("off"), with the
// write-ahead journal ("journal"), and with the journal plus a checkpoint
// every other round ("journal+ckpt"). The journaled sub-benchmarks also
// enforce the write-path contract — every transition appended exactly one
// record (8 submits + 3 ticks = 11) and the checkpoint cadence fired. The
// dominant cost of a session is planning, so the journal's per-transition
// JSON frame should price in the low percent range.
func BenchmarkDurableSession(b *testing.B) {
	for _, mode := range []struct {
		name            string
		journal         bool
		checkpointEvery int
	}{
		{"off", false, 0},
		{"journal", true, 0},
		{"journal+ckpt", true, 2},
	} {
		b.Run(mode.name, func(b *testing.B) {
			slots := 0
			for i := 0; i < b.N; i++ {
				var opts *durable.Options
				if mode.journal {
					dir := b.TempDir()
					opts = &durable.Options{JournalPath: filepath.Join(dir, "bench.journal")}
					if mode.checkpointEvery > 0 {
						opts.CheckpointPath = filepath.Join(dir, "bench.ckpt")
						opts.CheckpointEvery = mode.checkpointEvery
					}
				}
				reg := metrics.New()
				slots = benchDurableSession(b, uint64(i%10+1), opts, reg)
				if !mode.journal {
					continue
				}
				snap := reg.Snapshot()
				if n := snap.Counter("metasched/durable/records_appended_total"); n != 11 {
					b.Fatalf("records_appended_total = %d, want 11 (8 submits + 3 rounds)", n)
				}
				if mode.checkpointEvery > 0 {
					if n := snap.Counter("metasched/durable/checkpoints_written_total"); n == 0 {
						b.Fatal("checkpoint cadence never fired")
					}
				}
			}
			b.ReportMetric(float64(slots), "slots/op")
		})
	}
}
