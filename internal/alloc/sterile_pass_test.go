package alloc

import (
	"fmt"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/slot"
)

// TestNoSterileFinalPass is the regression test for the capped-search bug:
// when every job reaches MaxAlternativesPerJob, the search used to run (and
// count, in Passes and passes_total) one more pass in which the per-job cap
// check skipped every job — a pass that could not possibly scan anything.
// With a 3-slot list and 2 jobs each capped at 1 alternative, the first pass
// caps everybody, so exactly one pass must run. The uncapped search still
// counts its final empty pass: that one did scan and is how termination is
// detected. The rule lives in the one loop; it is exercised under each scan
// that loop can be bound to: the indexed scan of one view (linear=false,
// par=1), the merge of two views (linear=false, par=4 — a name kept from
// when the merge had a producer pool), and the linear reference
// (linear=true).
func TestNoSterileFinalPass(t *testing.T) {
	searches := []struct {
		linear bool
		par    int
		run    func(algo linearAlgorithm, opts SearchOptions) (*SearchResult, error)
	}{
		{false, 1, func(algo linearAlgorithm, opts SearchOptions) (*SearchResult, error) {
			return FindAlternatives(algo, smallList(), twoJobBatch(), opts)
		}},
		{false, 4, func(algo linearAlgorithm, opts SearchOptions) (*SearchResult, error) {
			views, shardOf := shardSplit(smallList(), 2)
			return FindAlternativesSharded(algo, views, shardOf, twoJobBatch(), opts, 1, nil)
		}},
		{true, 1, func(algo linearAlgorithm, opts SearchOptions) (*SearchResult, error) {
			res, _, err := findAlternativesLinear(algo, smallList(), twoJobBatch(), opts)
			return res, err
		}},
	}
	for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
		for _, search := range searches {
			t.Run(fmt.Sprintf("%s/linear=%t/par=%d", algo.Name(), search.linear, search.par), func(t *testing.T) {
				reg := metrics.New()
				res, err := search.run(algo, SearchOptions{
					MaxAlternativesPerJob: 1,
					Metrics:               NewSearchMetrics(reg, algo.Name()),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.AllJobsCovered(twoJobBatch()) {
					t.Fatal("both jobs should reach their cap on an idle list")
				}
				if res.Passes != 1 {
					t.Fatalf("Passes = %d, want 1: the all-capped pass must be neither run nor counted", res.Passes)
				}
				want := fmt.Sprintf("alloc/%s/passes_total", algo.Name())
				if n := reg.Counter(want).Value(); n != 1 {
					t.Fatalf("%s = %d, want 1", want, n)
				}

				// Uncapped control: the final empty pass is real scan work
				// and stays counted.
				res, err = search.run(algo, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Passes < 2 {
					t.Fatalf("uncapped Passes = %d, want >= 2 (terminating empty pass included)", res.Passes)
				}
			})
		}
	}
}

// TestCappedSearchSeqParIdentical pins the one-view stream and the two-view
// merge to the same capped-search results: for a spread of caps the full
// results — alternatives, pass counts, stats, remaining lists — must stay
// identical.
func TestCappedSearchSeqParIdentical(t *testing.T) {
	for _, algo := range []Algorithm{ALP{}, AMP{}} {
		for cap := 0; cap <= 3; cap++ {
			opts := SearchOptions{MaxAlternativesPerJob: cap}
			seq, remaining, err := findAlternativesHeld(algo, smallList(), twoJobBatch(), opts)
			if err != nil {
				t.Fatal(err)
			}
			views, shardOf := shardSplit(smallList(), 2)
			par, err := FindAlternativesSharded(algo, views, shardOf, twoJobBatch(), opts, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderResult(t, twoJobBatch(), par, viewsList(views)), renderResult(t, twoJobBatch(), seq, remaining); got != want {
				t.Fatalf("%s cap=%d: merge diverged from stream\n--- stream ---\n%s\n--- merge ---\n%s", algo.Name(), cap, want, got)
			}
		}
	}
}

// TestPrebuiltIndexEquivalence proves the one-view case of the unified
// entry is the indexed stream scan and nothing more: handing
// FindAlternativesSharded a single caller-built view returns byte-identical
// results to FindAlternatives' clone-and-build, for either value of its
// ignored parallelism argument; the view is adopted, not rebuilt
// (alloc/<algo>/index/rebuilds_total stays 0) and searched in place (the
// caller's view holds the build's remaining list); and a scan allocates exactly what
// findWindowIndexedStream does — no cursors, no candidate buffers.
func TestPrebuiltIndexEquivalence(t *testing.T) {
	for _, algo := range []Algorithm{ALP{}, AMP{}} {
		for _, parallelism := range []int{1, 4} {
			name := fmt.Sprintf("%s/par=%d", algo.Name(), parallelism)
			t.Run(name, func(t *testing.T) {
				base, baseRemaining, err := findAlternativesHeld(algo, smallList(), twoJobBatch(), SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				reg := metrics.New()
				opts := SearchOptions{Metrics: NewSearchMetrics(reg, algo.Name())}
				view := slot.NewIndex(smallList(), nil)
				got, err := FindAlternativesSharded(algo, []*slot.Index{view}, nil, twoJobBatch(), opts, parallelism, nil)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderResult(t, twoJobBatch(), got, view.List()), renderResult(t, twoJobBatch(), base, baseRemaining); g != w {
					t.Fatalf("one-view search diverged from clone-and-build, or the view was not searched in place\n--- build ---\n%s\n--- view ---\n%s", w, g)
				}
				counter := func(name string) int64 {
					return reg.Counter(fmt.Sprintf("alloc/%s/%s", algo.Name(), name)).Value()
				}
				if n := counter("index/rebuilds_total"); n != 0 {
					t.Fatalf("index/rebuilds_total = %d, want 0: the view must be adopted, not rebuilt", n)
				}
				if n, want := counter("index/scans_total"), counter("windows_found_total")+counter("windows_missed_total"); n != want {
					t.Fatalf("index probe recorded %d scans, want all %d", n, want)
				}

				fresh := slot.NewIndex(smallList(), nil)
				scan, _, err := newScanner(algo, []*slot.Index{fresh}, nil, SearchOptions{Metrics: &disabledSearchMetrics}, nil)
				if err != nil {
					t.Fatal(err)
				}
				j := twoJobBatch().Jobs()[0]
				fold := algo.newScan()
				direct := testing.AllocsPerRun(50, func() { findWindowIndexedStream(algo, fold, fresh, j, nil) })
				unified := testing.AllocsPerRun(50, func() { scan(j) })
				if unified != direct {
					t.Fatalf("one-view scan allocates %.0f objects per job, findWindowIndexedStream %.0f", unified, direct)
				}
			})
		}
	}
}

// TestWarmALPScanAllocatesOnlyTheWindow pins what an ALP job scan allocates
// once its search's fold has served a job at least as wide: the window (the
// Window and its placements) and nothing else — nothing for the fold, and
// nothing at all when no window exists. (AMP's heaps box every candidate
// through container/heap, so its count tracks the candidates, not the fold.)
func TestWarmALPScanAllocatesOnlyTheWindow(t *testing.T) {
	ix := slot.NewIndex(smallList(), nil)
	j := twoJobBatch().Jobs()[0]
	tooWide := &job.Job{Name: "wide", Priority: 1, Request: j.Request}
	tooWide.Request.Nodes = 4
	fold := ALP{}.newScan()
	if _, _, ok := findWindowIndexedStream(ALP{}, fold, ix, tooWide, nil); ok {
		t.Fatal("a 4-node window on 3 nodes")
	}
	if _, _, ok := findWindowIndexedStream(ALP{}, fold, ix, j, nil); !ok {
		t.Fatal("no window on an idle list")
	}
	found := testing.AllocsPerRun(50, func() { findWindowIndexedStream(ALP{}, fold, ix, j, nil) })
	none := testing.AllocsPerRun(50, func() { findWindowIndexedStream(ALP{}, fold, ix, tooWide, nil) })
	if found != 2 || none != 0 {
		t.Errorf("a warm scan allocates %.0f objects when it finds a window (want 2) and %.0f when it finds none (want 0)", found, none)
	}
}
