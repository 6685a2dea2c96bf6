package mc

import (
	"strings"
	"testing"

	"ecosched/internal/shard"
)

// TestTwoShardSplitNonDegenerate pins the universe's federation shape: the
// canonical label hash must actually split the three nodes across both
// shards ({n1, n3} vs {n2}), otherwise the sweep would never cross a shard
// boundary and the variant would silently test nothing new.
func TestTwoShardSplitNonDegenerate(t *testing.T) {
	u := TwoShard()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	pool, err := u.pool()
	if err != nil {
		t.Fatal(err)
	}
	p := shard.New(u.Shards)
	sizes := make([]int, p.K())
	for _, n := range pool.Nodes() {
		sizes[p.Of(n)]++
	}
	if len(sizes) != 2 {
		t.Fatalf("split into %d groups, want 2", len(sizes))
	}
	for i, size := range sizes {
		if size == 0 {
			t.Fatalf("shard %d is empty — the 2-shard universe is degenerate", i)
		}
	}
	// j3 needs two nodes; with n1 and n3 in one shard and n2 in the other,
	// both same-shard and cross-shard co-allocations are reachable.
	if got := p.Of(pool.ByName("n1")); got != p.Of(pool.ByName("n3")) {
		t.Errorf("n1 and n3 land in different shards (%d vs %d); update the universe doc", got, p.Of(pool.ByName("n3")))
	}
	if p.Of(pool.ByName("n2")) == p.Of(pool.ByName("n1")) {
		t.Error("n2 shares n1's shard — split degenerate")
	}
}

// TestExploreTwoShardClean is the 2-shard model-checking sweep: every
// interleaving of submits, evaluate/apply rounds, ticks, failures, recoveries,
// and revocations — including fail/recover/revoke sequences that land on
// different shards back to back — must satisfy the full audit safety set,
// now including per-shard live-store coherence (audit invariant 7 runs
// gridsim.VacantStoreCoherent, which checks every shard store against the
// rebuild oracle restricted to its nodes, after every single action).
func TestExploreTwoShardClean(t *testing.T) {
	depth, states := 6, 40000
	if testing.Short() {
		depth, states = 4, 4000
	}
	u := TwoShard()
	res, err := Explore(u, Options{
		MaxDepth:  depth,
		MaxStates: states,
		Liveness:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex != nil {
		t.Fatalf("violation in 2-shard universe:\n%s", res.Cex.Script())
	}
	if res.States < 100 || res.Transitions <= res.States {
		t.Fatalf("implausibly small sweep: %+v", res)
	}
	t.Logf("2-shard sweep: %d states, %d transitions, deepest %d, truncated %t, liveness %d, determinism %d",
		res.States, res.Transitions, res.Deepest, res.Truncated, res.LivenessChecks, res.DeterminismChecks)
}

// TestTwoShardMatchesDefault pins the federation's determinism contract
// inside the checker: replaying the same trace against the single-domain and
// the 2-shard universe must reach byte-identical canonical grid states —
// sharding changes how the search is organized, never what it schedules.
// The trace crosses the shard boundary deliberately: it fails n2 (the lone
// node of shard 1), evaluates and applies with one shard degraded, revokes on
// n1 (shard 0), and recovers — so one shard's store churns while the other's
// must neither diverge nor rebuild.
func TestTwoShardMatchesDefault(t *testing.T) {
	trace := mustTrace(t, "submit:j1; submit:j2; submit:j3; evaluate; apply; fail:n2; tick; evaluate; apply; revoke:n1:40-120; recover:n2; evaluate; apply")
	single, err := Replay(Default(), MutNone, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Replay(TwoShard(), MutNone, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ss, sh strings.Builder
	single.grid.CanonicalState(&ss)
	sharded.grid.CanonicalState(&sh)
	if ss.String() != sh.String() {
		t.Fatalf("2-shard replay diverged from single-domain:\n--- single ---\n%s\n--- 2-shard ---\n%s", ss.String(), sh.String())
	}
	if single.Hash() != sharded.Hash() {
		t.Fatalf("canonical hash diverged: %016x != %016x", single.Hash(), sharded.Hash())
	}
}
