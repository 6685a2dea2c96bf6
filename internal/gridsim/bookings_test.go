package gridsim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// The wide shape: 1000 nodes whose owner-local load keeps about a hundred
// bookings live on each over a 6000-tick horizon, stepped 150 ticks a round.
const (
	wideNodes   = 1000
	wideHorizon = sim.Duration(6000)
	wideStep    = sim.Duration(150)
)

var wideLoad = LocalLoad{MeanGap: 30, DurMin: 20, DurMax: 40}

// wideGrid returns an idle grid over the wide shape's pool of n nodes.
func wideGrid(tb testing.TB, n int) *Grid {
	tb.Helper()
	nodes := make([]*resource.Node, n)
	for i := range nodes {
		nodes[i] = &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: 1 + float64(i%21)/10,
			Price:       sim.Money(1 + i%4),
			Domain:      fmt.Sprintf("d%d", i%3),
		}
	}
	g, err := New(resource.MustNewPool(nodes))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// liveBookings counts the grid's live bookings.
func liveBookings(g *Grid) int {
	n := 0
	for id := range g.booked {
		n += len(g.booked[id].live())
	}
	return n
}

// TestAdvanceMovesInProportionToExpired pins the clock advance's work on the
// wide shape in steady state (rounds 40–80 of top-up + advance): the
// bookings compaction copies (gridsim/bookings_moved_total, Book's and
// Advance's together) stay within three per booking the clock expired. A
// list that copies its survivors down on every expiry moves about forty: a
// hundred survivors per node for the two or three bookings a step expires.
func TestAdvanceMovesInProportionToExpired(t *testing.T) {
	g := wideGrid(t, wideNodes)
	reg := metrics.New()
	g.SetMetrics(NewMetrics(reg))
	moved := reg.Counter("gridsim/bookings_moved_total")
	rng := sim.NewRNG(1)
	seeded := sim.Time(0)
	var expired, movedBefore int64
	for round := 0; round < 80; round++ {
		if round == 40 {
			movedBefore = moved.Value()
		}
		horizon := g.Now().Add(wideHorizon)
		if err := g.Populate(wideLoad, seeded, horizon, rng); err != nil {
			t.Fatal(err)
		}
		seeded = horizon
		before := liveBookings(g)
		if err := g.Advance(g.Now().Add(wideStep)); err != nil {
			t.Fatal(err)
		}
		if round >= 40 {
			expired += int64(before - liveBookings(g))
		}
	}
	copies := moved.Value() - movedBefore
	t.Logf("rounds 40-80: %d bookings moved for %d expired (%.2f each)", copies, expired, float64(copies)/float64(expired))
	if expired == 0 {
		t.Fatal("no booking expired in steady state")
	}
	if copies > 3*expired {
		t.Fatalf("%d bookings moved for %d expired: more than 3 per expired booking", copies, expired)
	}
}

// TestAdvanceSteadyStateAllocatesNothing: the clock advance allocates
// nothing — dropping the expired bookings, the compactions included, and
// trimming a built live store, whose re-tiled front buckets reuse the ones
// the trim retires, in one store or four.
func TestAdvanceSteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int // 0: no live store
	}{{"bookings", 0}, {"store_K=1", 1}, {"store_K=4", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			g := wideGrid(t, wideNodes)
			const advances = 40
			end := sim.Time(0).Add(wideHorizon + advances*wideStep)
			if err := g.Populate(wideLoad, 0, end, sim.NewRNG(1)); err != nil {
				t.Fatal(err)
			}
			if tc.shards > 0 {
				if err := g.SetSharding(tc.shards, byIDMod(tc.shards)); err != nil {
					t.Fatal(err)
				}
				views, err := g.ShardViews(end)
				if err != nil {
					t.Fatal(err)
				}
				g.ReleaseViews(views)
			}
			reg := metrics.New()
			g.SetMetrics(NewMetrics(reg))
			allocs := testing.AllocsPerRun(advances-1, func() {
				if err := g.Advance(g.Now().Add(wideStep)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Advance allocates %v times per call, want 0", allocs)
			}
			if reg.Counter("gridsim/bookings_moved_total").Value() == 0 {
				t.Fatal("no advance compacted a list: the compaction path went unmeasured")
			}
			if tc.shards > 0 {
				if trims := reg.Counter("gridsim/store/trims_total").Value(); trims != int64(advances*tc.shards) {
					t.Fatalf("%d store trims, want %d", trims, advances*tc.shards)
				}
				if err := g.VacantStoreCoherent(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWarmPublicationAllocsIndependentOfNodes pins what a warm round's
// publication allocates — ShardViews, whose horizon extension tiles the
// newly visible slots into the buckets the last trim retired, handed
// straight back through ReleaseViews — to the views themselves: the view
// slice, and per shard the clone (index, bucket-pointer slice, two write
// tokens). The count is the same at 100 and 1000 nodes. It is the median of
// twenty rounds: a scratch buffer still growing to its working size
// allocates once in a while.
func TestWarmPublicationAllocsIndependentOfNodes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shards := range []int{1, 4} {
		want := uint64(1 + 4*shards)
		for _, nodes := range []int{100, 1000} {
			g := wideGrid(t, nodes)
			if err := g.SetSharding(shards, byIDMod(shards)); err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(1)
			seeded := sim.Time(0)
			var counts []uint64
			for round := 0; round < 60; round++ {
				horizon := g.Now().Add(wideHorizon)
				if err := g.Populate(wideLoad, seeded, horizon, rng); err != nil {
					t.Fatal(err)
				}
				seeded = horizon
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				views, err := g.ShardViews(horizon)
				if err != nil {
					t.Fatal(err)
				}
				g.ReleaseViews(views)
				runtime.ReadMemStats(&after)
				if round >= 40 {
					counts = append(counts, after.Mallocs-before.Mallocs)
				}
				if err := g.Advance(g.Now().Add(wideStep)); err != nil {
					t.Fatal(err)
				}
			}
			slices.Sort(counts)
			if got := counts[len(counts)/2]; got != want {
				t.Errorf("K=%d, %d nodes: a warm publication allocates %d times (median; sorted %v), want %d",
					shards, nodes, got, counts, want)
			}
		}
	}
}

// TestForceBookOutsidePool: the corruption hook drops a task on a node the
// pool does not have instead of panicking, and books nothing.
func TestForceBookOutsidePool(t *testing.T) {
	g, err := New(testPool(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []resource.NodeID{-1, resource.NodeID(g.pool.Size()), 1 << 20} {
		g.ForceBook(Task{Name: "stray", Node: id, Span: sim.Interval{Start: 0, End: 10}})
		if got := g.Tasks(id); len(got) != 0 {
			t.Fatalf("node %d holds %v", id, got)
		}
	}
	if got := g.AllTasks(); len(got) != 0 {
		t.Fatalf("grid holds %v", got)
	}
	if got := g.CancelJob("stray"); len(got) != 0 {
		t.Fatalf("CancelJob cancelled %v", got)
	}
}

// BenchmarkGridRoundMaintenance measures the grid upkeep of one round of the
// wide shape between two searches: the owner-local top-up of the newly
// visible step, the publication of per-shard views (which extends the live
// stores' horizon) handed straight back, and the clock advance — in one
// store, and in four whose trims and extensions run on up to GOMAXPROCS
// goroutines.
func BenchmarkGridRoundMaintenance(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("K=%d", shards), func(b *testing.B) {
			g := wideGrid(b, wideNodes)
			if err := g.SetSharding(shards, byIDMod(shards)); err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(1)
			seeded := sim.Time(0)
			round := func() {
				horizon := g.Now().Add(wideHorizon)
				if err := g.Populate(wideLoad, seeded, horizon, rng); err != nil {
					b.Fatal(err)
				}
				seeded = horizon
				views, err := g.ShardViews(horizon)
				if err != nil {
					b.Fatal(err)
				}
				g.ReleaseViews(views)
				if err := g.Advance(g.Now().Add(wideStep)); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 40; i++ {
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
