package gridsim

import (
	"testing"

	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// byIDMod returns the node-ID-modulo assignment the store suites shard with:
// arbitrary but deterministic, and guaranteed non-degenerate for pools larger
// than k.
func byIDMod(k int) func(*resource.Node) int {
	return func(n *resource.Node) int { return int(n.ID) % k }
}

// checkShardedStore asserts full sharded-store coherence: the per-shard audit
// passes, every shard view holds only its own nodes' slots and matches the
// per-shard oracle, and the merged publication is byte-identical to the
// global rebuild.
func checkShardedStore(t *testing.T, g *Grid, horizon sim.Time, step string) {
	t.Helper()
	if err := g.VacantStoreCoherent(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	views, err := g.ShardViews(horizon)
	if err != nil {
		t.Fatalf("%s: ShardViews: %v", step, err)
	}
	if len(views) != g.Shards() {
		t.Fatalf("%s: %d views for %d shards", step, len(views), g.Shards())
	}
	for i, v := range views {
		for _, s := range v.List().Slots() {
			if got := g.shardIdx(s.Node); got != i {
				t.Fatalf("%s: view %d holds slot of node %s (shard %d)", step, i, s.Node.Label(), got)
			}
		}
		if want := g.shardOracle(i, horizon); v.List().String() != want.String() {
			t.Fatalf("%s: shard %d view diverged from per-shard oracle\n--- view ---\n%v\n--- oracle ---\n%v",
				step, i, v.List(), want)
		}
	}
	lists := make([]*slot.List, len(views))
	for i, v := range views {
		lists[i] = v.List()
	}
	merged := slot.MergeLists(lists...)
	oracle, err := g.RebuildVacantSlots(horizon)
	if err != nil {
		t.Fatalf("%s: RebuildVacantSlots: %v", step, err)
	}
	if merged.String() != oracle.String() {
		t.Fatalf("%s: merged shard views diverged from global oracle\n--- merged ---\n%v\n--- oracle ---\n%v",
			step, merged, oracle)
	}
	published, err := g.VacantSlots(horizon)
	if err != nil {
		t.Fatalf("%s: VacantSlots: %v", step, err)
	}
	if published.String() != oracle.String() {
		t.Fatalf("%s: VacantSlots diverged from oracle at K=%d", step, g.Shards())
	}
}

// TestShardedStoreLifecycleEquivalence drives a sharded grid through the full
// mutation surface — populate, book, fail, recover, advance, horizon extend
// and shrink — for several shard counts (including more shards than nodes, so
// empty shards are exercised), checking after every step that per-shard
// views, their canonical merge, and the global publication all match the
// rebuild oracle.
func TestShardedStoreLifecycleEquivalence(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 9} {
		pool := storePool(t, 6)
		g, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetSharding(k, byIDMod(k)); err != nil {
			t.Fatalf("k=%d: SetSharding: %v", k, err)
		}
		if g.Shards() != k {
			t.Fatalf("k=%d: Shards() = %d", k, g.Shards())
		}
		if err := g.Populate(LocalLoad{MeanGap: 40, DurMin: 20, DurMax: 60}, 0, 300, sim.NewRNG(11)); err != nil {
			t.Fatal(err)
		}
		checkShardedStore(t, g, 400, "after populate")
		if err := g.BookLocal("x1", "cpu1", 120, 180); err == nil {
			checkShardedStore(t, g, 400, "after book cpu1")
		}
		if err := g.BookLocal("x2", "cpu4", 200, 260); err == nil {
			checkShardedStore(t, g, 400, "after book cpu4")
		}
		checkShardedStore(t, g, 600, "after horizon extend")
		n3 := pool.ByName("cpu3")
		if _, err := g.FailNode(n3.ID, 300); err != nil {
			t.Fatal(err)
		}
		checkShardedStore(t, g, 600, "after failure")
		if err := g.RecoverNode(n3.ID); err != nil {
			t.Fatal(err)
		}
		checkShardedStore(t, g, 600, "after recovery")
		if err := g.Advance(250); err != nil {
			t.Fatal(err)
		}
		checkShardedStore(t, g, 600, "after advance")
		checkShardedStore(t, g, 500, "after horizon shrink")
		if err := g.VacantStoreCoherent(); err != nil {
			t.Fatalf("k=%d: final audit: %v", k, err)
		}
	}
}

// TestSetShardingValidation pins the partition contract: a multi-shard grid
// needs an assignment, every node must map into [0, k), k < 1 clamps to the
// unsharded case, and re-sharding releases the built stores so the next
// publication rebuilds under the new partition.
func TestSetShardingValidation(t *testing.T) {
	g, err := New(storePool(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetSharding(2, nil); err == nil {
		t.Error("SetSharding(2, nil): no error")
	}
	if err := g.SetSharding(3, func(*resource.Node) int { return 3 }); err == nil {
		t.Error("out-of-range assignment: no error")
	}
	if err := g.SetSharding(3, func(*resource.Node) int { return -1 }); err == nil {
		t.Error("negative assignment: no error")
	}
	if err := g.SetSharding(0, nil); err != nil {
		t.Errorf("SetSharding(0, nil): %v", err)
	}
	if g.Shards() != 1 {
		t.Errorf("Shards() after clamp = %d, want 1", g.Shards())
	}
	if _, err := g.VacantSlots(100); err != nil {
		t.Fatal(err)
	}
	if len(g.stores) != 1 {
		t.Fatalf("unsharded grid built %d stores", len(g.stores))
	}
	if err := g.SetSharding(2, byIDMod(2)); err != nil {
		t.Fatal(err)
	}
	if g.stores != nil {
		t.Error("re-sharding must release existing stores")
	}
	if _, err := g.VacantSlots(100); err != nil {
		t.Fatal(err)
	}
	if len(g.stores) != 2 {
		t.Fatalf("sharded grid built %d stores, want 2", len(g.stores))
	}
	if _, err := g.ShardViews(0); err == nil {
		t.Error("ShardViews at stale horizon: no error")
	}
}

// TestShardLocalIncoherentDrop is the regression pin for the shard-local
// self-healing fix: corrupting one shard's bookings behind the store's back
// (ForceBook bypasses the mutation hooks) makes the next exact-identity
// operation on that shard miss and drop it — and only it. The sibling shard's
// store object survives untouched, its rebuilds_total stays at its initial
// build, and only the corrupted shard's incoherent_drops_total and
// rebuilds_total move.
func TestShardLocalIncoherentDrop(t *testing.T) {
	reg := metrics.New()
	pool := storePool(t, 2)
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	g.SetMetrics(NewMetrics(reg))
	if err := g.SetSharding(2, byIDMod(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.VacantSlots(1000); err != nil {
		t.Fatal(err)
	}
	shard0Rebuilds := reg.Counter("gridsim/store/shard0/rebuilds_total")
	shard1Rebuilds := reg.Counter("gridsim/store/shard1/rebuilds_total")
	if shard0Rebuilds.Value() != 1 || shard1Rebuilds.Value() != 1 {
		t.Fatalf("initial per-shard rebuilds = %d/%d, want 1/1", shard0Rebuilds.Value(), shard1Rebuilds.Value())
	}
	survivor := g.stores[1]
	if survivor == nil {
		t.Fatal("shard 1 store not built")
	}

	// cpu1 (node ID 0 → shard 0) gets a booking the store never saw; the
	// next hooked booking derives its neighbor bounds from the corrupted
	// list, misses the store's actual slot identity, and self-heals.
	n1 := pool.ByName("cpu1")
	g.ForceBook(Task{Name: "ghost", Node: n1.ID, Span: sim.Interval{Start: 100, End: 200}, Local: true})
	if err := g.BookLocal("after-ghost", "cpu1", 300, 400); err != nil {
		t.Fatal(err)
	}

	if g.stores[0] != nil {
		t.Error("corrupted shard 0 store not dropped")
	}
	if g.stores[1] != survivor {
		t.Error("shard 1 store was disturbed by shard 0's drop")
	}
	if v := reg.Counter("gridsim/store/incoherent_drops_total").Value(); v != 1 {
		t.Errorf("incoherent_drops_total = %d, want 1", v)
	}
	if v := reg.Counter("gridsim/store/shard0/incoherent_drops_total").Value(); v != 1 {
		t.Errorf("shard0 incoherent_drops_total = %d, want 1", v)
	}
	if v := reg.Counter("gridsim/store/shard1/incoherent_drops_total").Value(); v != 0 {
		t.Errorf("shard1 incoherent_drops_total = %d, want 0", v)
	}

	// The next publication rebuilds only the dropped shard, from the now
	// force-included booking — so the store is coherent again and the
	// survivor's rebuild counter never moved.
	if _, err := g.VacantSlots(1000); err != nil {
		t.Fatal(err)
	}
	if err := g.VacantStoreCoherent(); err != nil {
		t.Fatalf("after self-heal: %v", err)
	}
	if g.stores[1] != survivor {
		t.Error("self-heal rebuilt the coherent shard 1")
	}
	if shard0Rebuilds.Value() != 2 {
		t.Errorf("shard0 rebuilds_total = %d, want 2", shard0Rebuilds.Value())
	}
	if shard1Rebuilds.Value() != 1 {
		t.Errorf("shard1 rebuilds_total = %d, want 1 (must be untouched)", shard1Rebuilds.Value())
	}
	if v := reg.Counter("gridsim/store/rebuilds_total").Value(); v != 3 {
		t.Errorf("global rebuilds_total = %d, want 3", v)
	}
}
