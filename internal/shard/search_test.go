package shard_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/shard"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// searchScenario builds a populated federated grid plus a job batch: the
// grid is sharded by the canonical partition, published as per-shard views
// and as the merged single list, so Search and the unsharded oracle run over
// the same vacancy.
func searchScenario(t *testing.T, seed uint64, k int) (shard.Partition, []*slot.Index, *slot.List, *job.Batch) {
	t.Helper()
	rng := sim.NewRNG(seed)
	pool := testPool(t, "n%d", 10)
	p := shard.New(k)
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.SetSharding(p.K(), p.Of); err != nil {
		t.Fatal(err)
	}
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 80, DurMin: 30, DurMax: 100}, 0, 900, rng.Split()); err != nil {
		t.Fatal(err)
	}
	views, err := grid.ShardViews(1000)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := grid.VacantSlots(1000)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job.Job, 0, 5)
	for i := 0; i < 5; i++ {
		jobs = append(jobs, &job.Job{
			Name:     fmt.Sprintf("job%d", i+1),
			Priority: i + 1,
			Request: job.ResourceRequest{
				Nodes:          rng.IntBetween(1, 3),
				Time:           sim.Duration(rng.IntBetween(40, 120)),
				MinPerformance: 1,
				MaxPrice:       sim.Money(rng.IntBetween(6, 14)),
			},
		})
	}
	batch, err := job.NewBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return p, views, merged, batch
}

// renderSearch canonicalizes a search result, and the vacancy left in the
// views it searched, for byte comparison.
func renderSearch(res *alloc.SearchResult, views []*slot.Index) string {
	var b strings.Builder
	names := make([]string, 0, len(res.Alternatives))
	for name := range res.Alternatives {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, w := range res.Alternatives[name] {
			fmt.Fprintf(&b, "%s: %v\n", name, w)
		}
	}
	fmt.Fprintf(&b, "stats=%+v passes=%d\n", res.Stats, res.Passes)
	lists := make([]*slot.List, len(views))
	for i, ix := range views {
		lists[i] = ix.List()
	}
	fmt.Fprintf(&b, "remaining=%v\n", slot.MergeLists(lists...))
	return b.String()
}

// TestSearchMatchesUnsharded pins the package's headline contract end to
// end: shard.Search over grid-published per-shard views returns exactly what
// alloc.FindAlternatives returns over the merged publication — windows,
// stats, pass count, and remaining vacancy — for both algorithms and several
// shard counts.
func TestSearchMatchesUnsharded(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, algo := range []alloc.Algorithm{alloc.ALP{}, alloc.AMP{}} {
			for _, k := range []int{1, 2, 4, 7} {
				p, views, merged, batch := searchScenario(t, seed, k)
				whole := slot.NewIndex(merged, nil)
				oracle, err := alloc.FindAlternatives(algo, merged, batch, alloc.SearchOptions{Prebuilt: whole})
				if err != nil {
					t.Fatalf("seed %d %s k=%d: oracle: %v", seed, algo.Name(), k, err)
				}
				res, err := shard.Search(algo, p, views, batch, alloc.SearchOptions{}, nil)
				if err != nil {
					t.Fatalf("seed %d %s k=%d: Search: %v", seed, algo.Name(), k, err)
				}
				if got, want := renderSearch(res, views), renderSearch(oracle, []*slot.Index{whole}); got != want {
					t.Fatalf("seed %d %s k=%d: federated search diverged\n--- unsharded ---\n%s\n--- sharded ---\n%s",
						seed, algo.Name(), k, want, got)
				}
			}
		}
	}
}

// TestSearchMetrics smoke-tests the shard metric family through the real
// entry points: Published sets the per-shard slot gauges and the imbalance,
// Search feeds the scan/merge counters, and the disabled holder takes every
// call.
func TestSearchMetrics(t *testing.T) {
	reg := metrics.New()
	k := 3
	p, views, _, batch := searchScenario(t, 3, k)
	m := shard.NewMetrics(reg, k)
	m.Published(views)
	if _, err := shard.Search(alloc.AMP{}, p, views, batch, alloc.SearchOptions{}, m); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n := snap.Gauge("shard/count"); n != int64(k) {
		t.Errorf("shard/count = %d, want %d", n, k)
	}
	slots := int64(0)
	for i := 0; i < k; i++ {
		slots += snap.Gauge(fmt.Sprintf("shard/%d/slots", i))
	}
	if slots == 0 {
		t.Error("per-shard slot gauges all zero after Published")
	}
	if n := snap.Gauge("shard/imbalance_x1000"); n < 1000 {
		t.Errorf("shard/imbalance_x1000 = %d, want >= 1000 (max/mean is at least 1)", n)
	}
	if n := snap.Counter("shard/merge/candidates_total"); n == 0 {
		t.Error("no merge candidates counted")
	}
	if n := snap.Counter("shard/merge/rounds_total"); n == 0 {
		t.Error("no merge rounds counted")
	}
	if n := snap.Counter("shard/scan_critical_path_total"); n == 0 {
		t.Error("no critical path counted")
	}
	off := shard.NewMetrics(nil, 2)
	off.Published(views)
	off.ObserveSearch(nil)
	if off.Count != nil || off.Slots != nil || off.ScanSlots != nil || off.Imbalance != nil {
		t.Error("NewMetrics(nil) must hold nil instruments")
	}
}
