package alloc

import (
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// TestIndexedFindWindowMatchesLinear is the per-scan oracle check: for many
// seeded lists and requests — with and without deadlines, across bucket
// sizes from degenerate (1) to default — the indexed scan
// (findWindowIndexedStream) must reproduce FindWindow exactly: same ok, same
// Stats, same window. The probe variant re-runs every indexed scan with a
// ScanStats attached to pin that observation never perturbs the result. One
// fold per algorithm serves every scan, as in a search, so each scan starts
// from the state the previous one left.
func TestIndexedFindWindowMatchesLinear(t *testing.T) {
	algos := []linearAlgorithm{ALP{}, AMP{}, AMP{Policy: FirstN}}
	folds := make([]scanState, len(algos))
	for a, algo := range algos {
		folds[a] = algo.newScan()
	}
	bucketSizes := []int{1, 3, 16, slot.DefaultBucketSize}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		list := fuzzList(seed, 2+int(seed%9), 1+int(seed%5))
		indexes := make([]*slot.Index, len(bucketSizes))
		for i, bs := range bucketSizes {
			indexes[i] = slot.NewIndexSize(list, bs, nil)
			if err := indexes[i].CheckInvariants(); err != nil {
				t.Fatalf("seed %d bucket size %d: fresh index invalid: %v", seed, bs, err)
			}
		}
		for trial := 0; trial < 8; trial++ {
			req := fuzzRequest(
				uint8(rng.IntN(256)), uint8(rng.IntN(256)),
				uint16(rng.IntN(1<<16)), uint16(rng.IntN(1<<16)),
				uint16(rng.IntN(1<<16)), uint16(rng.IntN(1<<16)))
			if trial%2 == 0 {
				req.Deadline = 0 // exercise the no-deadline full-scan branch too
			}
			j := &job.Job{Name: "ix", Priority: 1, Request: req}
			if err := j.Validate(); err != nil {
				continue
			}
			for a, algo := range algos {
				lw, lst, lok := algo.FindWindow(list, j)
				for i, ix := range indexes {
					for _, withProbe := range []bool{false, true} {
						var probe *slot.ScanStats
						if withProbe {
							probe = &slot.ScanStats{}
						}
						iw, ist, iok := findWindowIndexedStream(algo, folds[a], ix, j, probe)
						if iok != lok || ist != lst {
							t.Fatalf("seed %d trial %d %s bucket size %d: indexed (ok=%v stats=%+v) != linear (ok=%v stats=%+v)",
								seed, trial, algo.Name(), bucketSizes[i], iok, ist, lok, lst)
						}
						if lok && iw.String() != lw.String() {
							t.Fatalf("seed %d trial %d %s bucket size %d: indexed window %v != linear %v",
								seed, trial, algo.Name(), bucketSizes[i], iw, lw)
						}
					}
				}
			}
		}
	}
}

// TestIndexedSearchMatchesLinearOracle is the multi-pass differential, and
// the one place the linear reference is multiplied through search options:
// every production entry — FindAlternatives building its own index,
// FindAlternatives adopting a prebuilt one whose tiling differs from a fresh
// build's, and FindAlternativesSharded over three views — must be
// byte-identical to the same loop over FindWindow on full SearchResults:
// windows, discovery order, pass count, stats, and the remaining list. Each
// scenario is searched at its generated prices and again with every price
// scaled by a seeded factor, which moves slots across ALP's per-slot cap and
// AMP's budget.
func TestIndexedSearchMatchesLinearOracle(t *testing.T) {
	algos := []linearAlgorithm{ALP{}, AMP{}, AMP{Policy: FirstN}}
	options := []SearchOptions{
		{},
		{FirstOnly: true},
		{MaxAlternativesPerJob: 2},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		generated, batch := diffScenario(t, seed)
		factor := sim.Money(0.7 + 0.05*float64(seed%12))
		for li, list := range []*slot.List{generated, priceScaled(generated, factor)} {
			for _, algo := range algos {
				for oi, opts := range options {
					if li == 1 && oi != 0 {
						continue
					}
					oracle, remaining, err := findAlternativesLinear(algo, list, batch, opts)
					if err != nil {
						t.Fatalf("seed %d %s opts %d: linear: %v", seed, algo.Name(), oi, err)
					}
					want := renderResult(t, batch, oracle, remaining)
					check := func(name string, got *SearchResult, remaining *slot.List, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("seed %d list %d %s opts %d: %s: %v", seed, li, algo.Name(), oi, name, err)
						}
						if got := renderResult(t, batch, got, remaining); got != want {
							t.Fatalf("seed %d list %d %s opts %d: %s search diverged from linear oracle\n--- linear ---\n%s\n--- %s ---\n%s",
								seed, li, algo.Name(), oi, name, want, name, got)
						}
					}
					indexed, indexedRemaining, err := findAlternativesHeld(algo, list, batch, opts)
					check("indexed", indexed, indexedRemaining, err)

					// The adopted index is searched in place: the vacancy
					// read back from it is the oracle's remaining list.
					prebuilt := opts
					prebuilt.Prebuilt = slot.NewIndexSize(list, 5, nil)
					adopted, err := FindAlternatives(algo, prebuilt.Prebuilt.List(), batch, prebuilt)
					check("prebuilt", adopted, prebuilt.Prebuilt.List(), err)

					views, shardOf := shardSplit(list, 3)
					sharded, err := FindAlternativesSharded(algo, views, shardOf, batch, opts, 4, nil)
					check("sharded", sharded, viewsList(views), err)
				}
			}
		}
	}
}

// priceScaled returns a copy of list with every slot's price multiplied by
// factor; node pointers are shared.
func priceScaled(list *slot.List, factor sim.Money) *slot.List {
	slots := append([]slot.Slot(nil), list.Slots()...)
	for i := range slots {
		slots[i].Price *= factor
	}
	return slot.NewList(slots)
}

// TestIndexedSearchDisjointBands repeats the oracle differential on the
// low-conflict fixture, whose long rejecting scans are the index's favorable
// case (whole buckets pruned by the tag-blind performance filter stay
// visited-prefix-accurate).
func TestIndexedSearchDisjointBands(t *testing.T) {
	list, batch := disjointBandsFixture(6, 12, 6)
	opts := SearchOptions{MaxAlternativesPerJob: 3}
	for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
		oracle, oracleRemaining, err := findAlternativesLinear(algo, list, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		indexed, remaining, err := findAlternativesHeld(algo, list, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderResult(t, batch, indexed, remaining), renderResult(t, batch, oracle, oracleRemaining); got != want {
			t.Fatalf("%s: indexed diverged on disjoint-band fixture\n--- linear ---\n%s\n--- indexed ---\n%s",
				algo.Name(), want, got)
		}
		if oracle.TotalAlternatives() == 0 {
			t.Fatalf("%s: fixture found no alternatives; fixture broken", algo.Name())
		}
	}
}

// TestIndexedSearchBenchFixture pins the benchmark fixture itself: the
// indexed search must agree with the linear reference on it and must find
// alternatives, so BenchmarkIndexedSearch measures correct, non-empty work.
func TestIndexedSearchBenchFixture(t *testing.T) {
	list, batch := indexedBenchFixture(10000)
	opts := SearchOptions{MaxAlternativesPerJob: 2}
	oracle, oracleRemaining, err := findAlternativesLinear(AMP{}, list, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	indexed, remaining, err := findAlternativesHeld(AMP{}, list, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(t, batch, indexed, remaining), renderResult(t, batch, oracle, oracleRemaining); got != want {
		t.Fatalf("indexed diverged on the benchmark fixture\n--- linear ---\n%s\n--- indexed ---\n%s", want, got)
	}
	if oracle.TotalAlternatives() == 0 {
		t.Fatal("benchmark fixture finds no alternatives; the comparison is empty work")
	}
}

// TestIndexedSearchInstrumented attaches a registry to the indexed search
// and checks the index instruments fire coherently: the result is unchanged,
// every scan is counted, and the incremental maintenance counters add up
// (one rebuild for the initial build; inserts/removes per subtraction).
func TestIndexedSearchInstrumented(t *testing.T) {
	list, batch := diffScenario(t, 5)
	plain, plainRemaining, err := findAlternativesHeld(AMP{}, list, batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	opts := SearchOptions{Metrics: NewSearchMetrics(reg, "AMP")}
	inst, remaining, err := findAlternativesHeld(AMP{}, list, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(t, batch, inst, remaining), renderResult(t, batch, plain, plainRemaining); got != want {
		t.Fatalf("index metrics changed the search result\n--- plain ---\n%s\n--- instrumented ---\n%s", want, got)
	}
	snap := reg.Snapshot()
	scans := snap.Counter("alloc/AMP/index/scans_total")
	totalScans := snap.Counter("alloc/AMP/windows_found_total") + snap.Counter("alloc/AMP/windows_missed_total")
	if scans != totalScans {
		t.Errorf("index scans_total %d != %d committed scans", scans, totalScans)
	}
	if got := snap.Counter("alloc/AMP/index/rebuilds_total"); got != 1 {
		t.Errorf("rebuilds_total %d, want 1 (the initial build)", got)
	}
	// Every found window subtracts its placements: one remove plus up to two
	// remainder inserts each, all through the index.
	found := snap.Counter("alloc/AMP/windows_found_total")
	if removes := snap.Counter("alloc/AMP/index/removes_total"); found > 0 && removes == 0 {
		t.Errorf("windows were subtracted but removes_total is 0 (found=%d)", found)
	}
	if visited := snap.Counter("alloc/AMP/index/buckets_visited_total"); scans > 0 && visited == 0 {
		t.Error("committed indexed scans recorded no bucket visits")
	}
}
