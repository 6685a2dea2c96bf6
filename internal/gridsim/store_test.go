package gridsim

import (
	"fmt"
	"testing"

	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// storePool builds a small heterogeneous pool for the store suites.
func storePool(t testing.TB, nodes int) *resource.Pool {
	t.Helper()
	out := make([]*resource.Node, 0, nodes)
	for i := 0; i < nodes; i++ {
		out = append(out, &resource.Node{
			Name:        fmt.Sprintf("cpu%d", i+1),
			Performance: 1 + float64(i%3),
			Price:       sim.Money(2 + i%4),
			Domain:      fmt.Sprintf("d%d", i%2),
		})
	}
	return resource.MustNewPool(out)
}

// checkStore fails the test if the live store diverged from the rebuild
// oracle, or if the publication the two paths would serve differ.
func checkStore(t *testing.T, g *Grid, step string) {
	t.Helper()
	if err := g.VacantStoreCoherent(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if len(g.stores) == 0 || g.stores[0] == nil {
		return
	}
	horizon := g.stores[0].horizon
	live, err := g.VacantSlots(horizon)
	if err != nil {
		t.Fatalf("%s: VacantSlots: %v", step, err)
	}
	oracle, err := g.RebuildVacantSlots(horizon)
	if err != nil {
		t.Fatalf("%s: RebuildVacantSlots: %v", step, err)
	}
	if live.String() != oracle.String() {
		t.Fatalf("%s: live publication diverged from oracle\n--- live ---\n%v\n--- oracle ---\n%v", step, live, oracle)
	}
}

// TestVacantStoreRandomOpsEquivalence drives the full mutation surface —
// bookings, commits, job cancellations, node failures and recoveries, interval
// revocations, clock advances, and publications at growing and shrinking
// horizons — with random operation sequences, asserting after every step that
// the incrementally maintained store is byte-identical to the rebuild oracle
// and that the self-healing path never fired.
func TestVacantStoreRandomOpsEquivalence(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(uint64(seed))
			pool := storePool(t, 4)
			g, err := New(pool)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			g.SetMetrics(NewMetrics(reg))
			horizon := sim.Time(400)
			if _, err := g.VacantSlots(horizon); err != nil {
				t.Fatal(err)
			}
			jobSeq := 0
			for op := 0; op < 120; op++ {
				step := fmt.Sprintf("seed %d op %d", seed, op)
				switch k := rng.IntN(10); {
				case k < 3: // book a task (local or VO) at a random spot
					jobSeq++
					id := pool.Nodes()[rng.IntN(pool.Size())].ID
					start := g.Now().Add(sim.Duration(rng.IntBetween(0, 500)))
					end := start.Add(sim.Duration(rng.IntBetween(1, 80)))
					// Collisions are expected; a rejected booking must leave
					// the store untouched.
					_ = g.Book(Task{
						Name:  fmt.Sprintf("t%d", jobSeq),
						Node:  id,
						Span:  sim.Interval{Start: start, End: end},
						Local: rng.Bool(0.5),
					})
				case k < 4: // cancel everything booked under a random past name
					_ = g.CancelJob(fmt.Sprintf("t%d", rng.IntBetween(1, jobSeq+1)))
				case k < 6: // fail a node
					id := pool.Nodes()[rng.IntN(pool.Size())].ID
					if _, err := g.FailNode(id, g.Now()); err != nil {
						t.Fatalf("%s: FailNode: %v", step, err)
					}
				case k < 8: // recover a node (no-op when not failed)
					id := pool.Nodes()[rng.IntN(pool.Size())].ID
					if err := g.RecoverNode(id); err != nil {
						t.Fatalf("%s: RecoverNode: %v", step, err)
					}
				case k < 9: // revoke an interval on a random node
					id := pool.Nodes()[rng.IntN(pool.Size())].ID
					start := g.Now().Add(sim.Duration(rng.IntBetween(0, 300)))
					span := sim.Interval{Start: start, End: start.Add(sim.Duration(rng.IntBetween(1, 60)))}
					if _, err := g.RevokeInterval(id, span); err != nil {
						t.Fatalf("%s: RevokeInterval: %v", step, err)
					}
				default: // advance the clock
					if err := g.Advance(g.Now().Add(sim.Duration(rng.IntBetween(1, 40)))); err != nil {
						t.Fatalf("%s: Advance: %v", step, err)
					}
				}
				checkStore(t, g, step)
				// Publish at a randomly moving horizon: mostly sliding
				// forward (the steady-state extend path), sometimes
				// shrinking (forcing a rebuild).
				switch rng.IntN(4) {
				case 0:
					horizon = horizon.Add(sim.Duration(rng.IntBetween(1, 60)))
				case 1:
					horizon = g.Now().Add(sim.Duration(rng.IntBetween(50, 200)))
				}
				if horizon <= g.Now() {
					horizon = g.Now().Add(100)
				}
				if _, err := g.VacantSlots(horizon); err != nil {
					t.Fatalf("%s: VacantSlots(%v): %v", step, horizon, err)
				}
				checkStore(t, g, step+" after publish")
			}
			if n := reg.Counter("gridsim/store/incoherent_drops_total").Value(); n != 0 {
				t.Fatalf("seed %d: self-healing fired %d times — the incremental maintenance missed", seed, n)
			}
		})
	}
}

// TestVacantSlotsHorizonEdgeCases pins the boundary conventions of the
// publication — bookings straddling the horizon, bookings abutting the
// current time, fully-booked and failed nodes — on both the live store and
// the rebuild oracle, which must agree slot for slot by construction.
func TestVacantSlotsHorizonEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		book    func(t *testing.T, g *Grid)
		horizon sim.Time
		// want is the publication rendered as "node:[start,end)" triples in
		// canonical order; cpu1/cpu2 as in testPool.
		want []string
	}{
		{
			name: "booking straddles the horizon",
			book: func(t *testing.T, g *Grid) {
				if err := g.BookLocal("p", "cpu1", 80, 150); err != nil {
					t.Fatal(err)
				}
			},
			horizon: 100,
			want:    []string{"cpu1:[0,80)", "cpu2:[0,100)"},
		},
		{
			name: "booking starts exactly at the horizon",
			book: func(t *testing.T, g *Grid) {
				if err := g.BookLocal("p", "cpu1", 100, 150); err != nil {
					t.Fatal(err)
				}
			},
			horizon: 100,
			want:    []string{"cpu1:[0,100)", "cpu2:[0,100)"},
		},
		{
			name: "booking ends exactly at the horizon",
			book: func(t *testing.T, g *Grid) {
				if err := g.BookLocal("p", "cpu1", 60, 100); err != nil {
					t.Fatal(err)
				}
			},
			horizon: 100,
			want:    []string{"cpu1:[0,60)", "cpu2:[0,100)"},
		},
		{
			name: "booking abuts the current time",
			book: func(t *testing.T, g *Grid) {
				if err := g.BookLocal("p", "cpu1", 0, 30); err != nil {
					t.Fatal(err)
				}
			},
			horizon: 100,
			want:    []string{"cpu2:[0,100)", "cpu1:[30,100)"},
		},
		{
			name: "fully booked node publishes nothing",
			book: func(t *testing.T, g *Grid) {
				if err := g.BookLocal("p", "cpu1", 0, 100); err != nil {
					t.Fatal(err)
				}
			},
			horizon: 100,
			want:    []string{"cpu2:[0,100)"},
		},
		{
			name: "failed node publishes nothing",
			book: func(t *testing.T, g *Grid) {
				if _, err := g.FailNode(g.Pool().ByName("cpu1").ID, 0); err != nil {
					t.Fatal(err)
				}
			},
			horizon: 100,
			want:    []string{"cpu2:[0,100)"},
		},
	}
	for _, tc := range cases {
		for _, rebuild := range []bool{false, true} {
			name := tc.name + "/live"
			if rebuild {
				name = tc.name + "/rebuild"
			}
			t.Run(name, func(t *testing.T) {
				g, err := New(testPool(t))
				if err != nil {
					t.Fatal(err)
				}
				// The live arm publishes once before mutating so it exercises
				// the incremental hooks, not just the initial build; the
				// rebuild arm pins the expectation on the oracle itself.
				publish := g.VacantSlots
				if rebuild {
					publish = g.RebuildVacantSlots
				} else if _, err := g.VacantSlots(tc.horizon); err != nil {
					t.Fatal(err)
				}
				tc.book(t, g)
				list, err := publish(tc.horizon)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, s := range list.Slots() {
					got = append(got, fmt.Sprintf("%s:[%d,%d)", s.Node.Name, s.Start(), s.End()))
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("publication: got %v, want %v", got, tc.want)
				}
				checkStore(t, g, tc.name)
			})
		}
	}
}

// TestHorizonExtensionBoundaries pins the boundary conventions of horizon
// extension, the one store path TestVacantSlotsHorizonEdgeCases cannot reach
// because it publishes at one fixed horizon. Each case publishes at the old
// horizon 100, mutates, and then publishes at a later horizon, so the store
// extends rather than rebuilds. After every publication the store must match
// the per-shard rebuild oracle, at K=1 and K=4, and cpu1 must hold exactly
// the slots listed. A view published just before each extension must be
// unchanged after it.
func TestHorizonExtensionBoundaries(t *testing.T) {
	type step struct {
		do      func(t *testing.T, g *Grid)
		horizon sim.Time
	}
	bookLocal := func(node string, start, end sim.Time) func(t *testing.T, g *Grid) {
		return func(t *testing.T, g *Grid) {
			t.Helper()
			if err := g.BookLocal("p", node, start, end); err != nil {
				t.Fatal(err)
			}
		}
	}
	nothing := func(*testing.T, *Grid) {}
	cases := []struct {
		name  string
		steps []step
		// want is cpu1's vacancy after the last step, as "[start,end)".
		want []string
	}{
		{
			name:  "vacant up to the old horizon: the trailing slot grows",
			steps: []step{{nothing, 150}},
			want:  []string{"[0,150)"},
		},
		{
			name:  "booking ends exactly at the old horizon: the new fragment stands alone",
			steps: []step{{bookLocal("cpu1", 60, 100), 150}},
			want:  []string{"[0,60)", "[100,150)"},
		},
		{
			name:  "booking straddles the old horizon",
			steps: []step{{bookLocal("cpu1", 80, 120), 150}},
			want:  []string{"[0,80)", "[120,150)"},
		},
		{
			name:  "booking starts exactly at the new horizon",
			steps: []step{{bookLocal("cpu1", 150, 200), 150}},
			want:  []string{"[0,150)"},
		},
		{
			name: "local arrivals booked into the new step before publication",
			steps: []step{{func(t *testing.T, g *Grid) {
				bookLocal("cpu1", 110, 130)(t, g)
				bookLocal("cpu1", 140, 145)(t, g)
			}, 150}},
			want: []string{"[0,110)", "[130,140)", "[145,150)"},
		},
		{
			name: "failed node skipped, then recovered",
			steps: []step{
				{func(t *testing.T, g *Grid) {
					if _, err := g.FailNode(g.Pool().ByName("cpu1").ID, 0); err != nil {
						t.Fatal(err)
					}
				}, 150},
				{func(t *testing.T, g *Grid) {
					if err := g.RecoverNode(g.Pool().ByName("cpu1").ID); err != nil {
						t.Fatal(err)
					}
				}, 200},
			},
			want: []string{"[0,200)"},
		},
		{
			name: "a jump of three steps",
			steps: []step{{func(t *testing.T, g *Grid) {
				bookLocal("cpu1", 120, 140)(t, g)
				bookLocal("cpu1", 200, 210)(t, g)
			}, 250}},
			want: []string{"[0,120)", "[140,200)", "[210,250)"},
		},
		{
			name: "clock advanced before the extension",
			steps: []step{{func(t *testing.T, g *Grid) {
				bookLocal("cpu1", 10, 20)(t, g)
				if err := g.Advance(30); err != nil {
					t.Fatal(err)
				}
			}, 150}},
			want: []string{"[30,150)"},
		},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", tc.name, k), func(t *testing.T) {
				g, err := New(storePool(t, 6))
				if err != nil {
					t.Fatal(err)
				}
				if err := g.SetSharding(k, byIDMod(k)); err != nil {
					t.Fatal(err)
				}
				reg := metrics.New()
				g.SetMetrics(NewMetrics(reg))
				checkShardedStore(t, g, 100, "first publication")
				for i, st := range tc.steps {
					label := fmt.Sprintf("step %d", i)
					st.do(t, g)
					before, err := g.ShardViews(g.stores[0].horizon)
					if err != nil {
						t.Fatal(err)
					}
					var frozen []string
					for _, v := range before {
						frozen = append(frozen, v.List().String())
					}
					checkShardedStore(t, g, st.horizon, label)
					for i, v := range before {
						if v.List().String() != frozen[i] {
							t.Fatalf("%s: shard %d view published before the extension changed\n--- before ---\n%s\n--- after ---\n%s",
								label, i, frozen[i], v.List())
						}
					}
				}
				list, err := g.VacantSlots(tc.steps[len(tc.steps)-1].horizon)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, s := range list.Slots() {
					if s.Node.Name == "cpu1" {
						got = append(got, fmt.Sprintf("[%d,%d)", s.Start(), s.End()))
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("cpu1 vacancy: got %v, want %v", got, tc.want)
				}
				if n := reg.Counter("gridsim/store/rebuilds_total").Value(); n != int64(k) {
					t.Errorf("rebuilds_total = %d, want %d (one build per shard, every later publication extends)", n, k)
				}
				if n := reg.Counter("gridsim/store/extends_total").Value(); n != int64(k*len(tc.steps)) {
					t.Errorf("extends_total = %d, want %d", n, k*len(tc.steps))
				}
				if n := reg.Counter("gridsim/store/incoherent_drops_total").Value(); n != 0 {
					t.Errorf("incoherent_drops_total = %d, want 0", n)
				}
			})
		}
	}
}

// TestVacantViewCloneIsolation proves the index VacantView hands out is the
// caller's to destroy: subtracting from it (as the alternative search does)
// must leave the store's own copy, and later publications, untouched.
func TestVacantViewCloneIsolation(t *testing.T) {
	g, err := New(testPool(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BookLocal("p", "cpu1", 40, 60); err != nil {
		t.Fatal(err)
	}
	before, ix, err := g.VacantView(200)
	if err != nil {
		t.Fatal(err)
	}
	if ix == nil {
		t.Fatal("live path returned no index")
	}
	want := before.String()
	// Maul the caller's copy.
	for ix.Len() > 0 {
		if err := ix.SubtractInterval(ix.At(0), ix.At(0).Span); err != nil {
			t.Fatal(err)
		}
	}
	checkStore(t, g, "after mauling the clone")
	after, err := g.VacantSlots(200)
	if err != nil {
		t.Fatal(err)
	}
	if after.String() != want {
		t.Fatalf("store changed through a handed-out clone:\n--- before ---\n%s\n--- after ---\n%s", want, after.String())
	}
}

// TestStoreSteadyStateRebuildsOnce pins the tentpole's performance contract
// at the metric level: a session of interleaved bookings, advances, and
// sliding-horizon publications pays exactly one full store build — the lazy
// first one — with every later publication served incrementally.
func TestStoreSteadyStateRebuildsOnce(t *testing.T) {
	pool := storePool(t, 6)
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	g.SetMetrics(NewMetrics(reg))
	rng := sim.NewRNG(7)
	step := sim.Duration(50)
	horizon := sim.Duration(400)
	for i := 0; i < 30; i++ {
		if _, err := g.VacantSlots(g.Now().Add(horizon)); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			id := pool.Nodes()[rng.IntN(pool.Size())].ID
			start := g.Now().Add(sim.Duration(rng.IntBetween(0, 300)))
			_ = g.Book(Task{
				Name: fmt.Sprintf("b%d-%d", i, b),
				Node: id,
				Span: sim.Interval{Start: start, End: start.Add(sim.Duration(rng.IntBetween(1, 40)))},
			})
		}
		if err := g.Advance(g.Now().Add(step)); err != nil {
			t.Fatal(err)
		}
	}
	checkStore(t, g, "end of session")
	if n := reg.Counter("gridsim/store/rebuilds_total").Value(); n != 1 {
		t.Fatalf("rebuilds_total = %d, want exactly 1 (the lazy initial build)", n)
	}
	if n := reg.Counter("gridsim/store/incoherent_drops_total").Value(); n != 0 {
		t.Fatalf("incoherent_drops_total = %d, want 0", n)
	}
	if n := reg.Counter("gridsim/store/extends_total").Value(); n == 0 {
		t.Fatal("extends_total = 0 — the sliding horizon never exercised the extend path")
	}
	if n := reg.Counter("gridsim/store/trims_total").Value(); n == 0 {
		t.Fatal("trims_total = 0 — the advances never exercised the trim path")
	}
}
