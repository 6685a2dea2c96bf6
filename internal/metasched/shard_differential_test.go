package metasched_test

import (
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
)

// withShards returns a config option setting the federation's shard count.
func withShards(k int) func(*metasched.Config) {
	return func(c *metasched.Config) { c.Shards = k }
}

// TestShardDifferential is the one-search-path equivalence suite: over 20
// seeded random sessions (covering live local arrivals and a mid-session
// node failure by seed selection) and both algorithms, every
// session at K ∈ {2, 4, 7} must produce a transcript byte-identical to the
// K=1 session: same committed windows, plan criteria, postponements, drops,
// and failure re-queues. K=1 is the one-view case of the same loop, K>1 the
// cursor merge. The batch policy alternates by seed so both criteria are
// swept without doubling the run.
func TestShardDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP", alloc.AMP{}},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		policy := metasched.MinimizeTime
		if seed%2 == 1 {
			policy = metasched.MinimizeCost
		}
		for _, a := range algos {
			want := diffSessionTranscript(t, seed, a.algo, policy, nil)
			for _, k := range []int{2, 4, 7} {
				got := diffSessionTranscript(t, seed, a.algo, policy, nil, withShards(k))
				if got != want {
					t.Fatalf("seed %d %s %v: K=%d session diverged from K=1\n--- K=1 ---\n%s\n--- K=%d ---\n%s",
						seed, a.name, policy, k, want, k, got)
				}
			}
		}
	}
}

// TestShardedSteadyStateAdoptsViews extends the live-store steady-state pin
// to the federation: at K=2 each shard's store builds exactly once (two
// builds total, one per shard), the self-healing reset never fires, and the
// sharded search adopts the published shard views instead of rebuilding
// indexes of its own. The shard/ metric family must also be live: the count
// gauge, per-shard scan work, and the merge counters.
func TestShardedSteadyStateAdoptsViews(t *testing.T) {
	reg := metrics.New()
	diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, reg, withShards(2))
	snap := reg.Snapshot()
	if n := snap.Counter("gridsim/store/rebuilds_total"); n != 2 {
		t.Errorf("gridsim/store/rebuilds_total = %d, want exactly 2 (one per shard)", n)
	}
	for _, name := range []string{"gridsim/store/shard0/rebuilds_total", "gridsim/store/shard1/rebuilds_total"} {
		if n := snap.Counter(name); n != 1 {
			t.Errorf("%s = %d, want exactly 1", name, n)
		}
	}
	if n := snap.Counter("gridsim/store/incoherent_drops_total"); n != 0 {
		t.Errorf("gridsim/store/incoherent_drops_total = %d, want 0", n)
	}
	if n := snap.Counter("alloc/AMP/index/rebuilds_total"); n != 0 {
		t.Errorf("alloc/AMP/index/rebuilds_total = %d, want 0: the sharded search must adopt the shard views", n)
	}
	if n := snap.Counter("gridsim/store/snapshots_total"); n == 0 {
		t.Error("no store snapshots recorded — the live path did not serve the session")
	}
	if n := snap.Gauge("shard/count"); n != 2 {
		t.Errorf("shard/count = %d, want 2", n)
	}
	if n := snap.Counter("shard/merge/candidates_total"); n == 0 {
		t.Error("no merged candidates recorded")
	}
	if n := snap.Counter("shard/scan_critical_path_total"); n == 0 {
		t.Error("no scan critical path recorded")
	}
	scanned := int64(0)
	for _, name := range []string{"shard/0/scan_slots_total", "shard/1/scan_slots_total"} {
		scanned += snap.Counter(name)
	}
	if scanned == 0 {
		t.Error("no per-shard scan work recorded")
	}
}
