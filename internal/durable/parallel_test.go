package durable_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/durable"
	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// parallelFactory is durableFactory on a 96-node pool with owner-local load
// dense enough that every shard's store trims and extends several buckets
// each round, and with its instruments in reg.
func parallelFactory(seed uint64, shards int, reg *metrics.Registry) durable.Factory {
	return func() (*metasched.Service, error) {
		var nodes []*resource.Node
		for i := 0; i < 96; i++ {
			nodes = append(nodes, &resource.Node{
				Name:        fmt.Sprintf("n%d", i+1),
				Performance: 1 + float64(i%3)*0.5,
				Price:       sim.Money(1 + float64(i%4)*0.75),
				Domain:      fmt.Sprintf("d%d", i%4),
			})
		}
		pool, err := resource.NewPool(nodes)
		if err != nil {
			return nil, err
		}
		grid, err := gridsim.New(pool)
		if err != nil {
			return nil, err
		}
		sched, err := metasched.New(metasched.Config{
			Algorithm:        alloc.AMP{},
			Policy:           metasched.MinimizeTime,
			Horizon:          600,
			Step:             60,
			MaxBatch:         4,
			MaxPostponements: 4,
			Shards:           shards,
			Retry: &metasched.RetryPolicy{
				MaxAttempts: 2, BackoffBase: 40, BackoffFactor: 2, BackoffMax: 200,
				JitterFrac: 0.2, JitterSeed: seed, PriceRelaxFactor: 1.3, MaxRelaxations: 2,
			},
			LocalArrivals: &metasched.LocalArrivals{
				Load: gridsim.LocalLoad{MeanGap: 10, DurMin: 3, DurMax: 8},
				RNG:  sim.NewRNG(seed ^ 0xa5a5_5a5a),
			},
			Metrics: reg,
		}, grid)
		if err != nil {
			return nil, err
		}
		return metasched.NewService(sched, metasched.ServiceConfig{})
	}
}

// TestParallelMaintenanceIsDeterministic runs seeded churn sessions — node
// failures, recoveries and revocations, journaled with a checkpoint every
// two rounds — in every cell of K ∈ {1, 2, 4} × GOMAXPROCS ∈ {1, 2}. With
// GOMAXPROCS = 2 and K > 1 the stores trim and extend on two goroutines, so
// under the race detector this is where the store's concurrent maintenance
// meets it. Every cell must produce the same transcript and the same
// durable.StateHash, and the cells of one K the same metrics snapshot byte
// for byte (the per-shard instruments make snapshots differ across K): the
// shared gridsim/store/index/buckets gauge, which each shard's trim and
// extension write, must read as a serial loop leaves it.
func TestParallelMaintenanceIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		// genEvents picks recovered nodes in map order: one script per seed.
		events := genEvents(seed)
		var wantTranscript string
		var wantHash uint64
		for _, shards := range []int{1, 2, 4} {
			var wantSnapshot string
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				reg := metrics.New()
				svc, err := parallelFactory(seed, shards, reg)()
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				ds, err := durable.New(svc, durable.Options{
					JournalPath:     filepath.Join(dir, "journal"),
					CheckpointPath:  filepath.Join(dir, "checkpoint"),
					CheckpointEvery: 2,
					Metrics:         reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				var transcript, snapshots strings.Builder
				for _, e := range events {
					transcript.WriteString(issue(ds, e))
					transcript.WriteByte('\n')
					snapshots.WriteString(reg.Snapshot().Text())
				}
				hash := durable.StateHash(svc)
				if err := ds.Close(); err != nil {
					t.Fatal(err)
				}
				snapshot := snapshots.String() + reg.Snapshot().Text()
				cell := fmt.Sprintf("seed %d, K=%d, GOMAXPROCS=%d", seed, shards, procs)
				if reg.Snapshot().Counter("gridsim/store/trims_total") == 0 {
					t.Fatalf("%s: no store trim ran", cell)
				}
				if wantTranscript == "" {
					wantTranscript, wantHash = transcript.String(), hash
				} else if transcript.String() != wantTranscript {
					t.Fatalf("%s: transcript differs from K=1, GOMAXPROCS=1\n got:\n%s\nwant:\n%s", cell, transcript.String(), wantTranscript)
				} else if hash != wantHash {
					t.Fatalf("%s: state hash %016x, K=1, GOMAXPROCS=1 had %016x", cell, hash, wantHash)
				}
				if wantSnapshot == "" {
					wantSnapshot = snapshot
				} else if snapshot != wantSnapshot {
					t.Fatalf("%s: metrics snapshot differs from GOMAXPROCS=1\n got:\n%s\nwant:\n%s", cell, snapshot, wantSnapshot)
				}
			}
		}
	}
}
