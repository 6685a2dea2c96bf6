package experiments

import (
	"testing"

	"ecosched/internal/metrics"
)

// TestGoldenTimeMinStudyWithMetrics is the scaled-down Fig. 4 golden run
// with the observability registry attached: the paper's directional facts
// must hold, the study result must be identical to the uninstrumented run,
// and the instruments must agree with the result's own accounting.
func TestGoldenTimeMinStudyWithMetrics(t *testing.T) {
	reg := metrics.New()
	cfg := PaperStudyConfig(42, studyIterations)
	cfg.Metrics = reg
	res, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept < 30 {
		t.Fatalf("too few kept experiments (%d) for shape assertions", res.Kept)
	}

	// The paper's directional facts (Fig. 4a/4b + Section 5 counts):
	// AMP schedules run faster, cost more, and draw from far more
	// alternatives than ALP's.
	if !(res.AMP.JobTime.Mean() < res.ALP.JobTime.Mean()) {
		t.Errorf("golden shape: AMP time %v not below ALP %v",
			res.AMP.JobTime.Mean(), res.ALP.JobTime.Mean())
	}
	if !(res.AMP.JobCost.Mean() > res.ALP.JobCost.Mean()) {
		t.Errorf("golden shape: AMP cost %v not above ALP %v",
			res.AMP.JobCost.Mean(), res.ALP.JobCost.Mean())
	}
	if !(res.AMP.AlternativesPerJob() > res.ALP.AlternativesPerJob()) {
		t.Errorf("golden shape: AMP alternatives/job %v not above ALP %v",
			res.AMP.AlternativesPerJob(), res.ALP.AlternativesPerJob())
	}

	// Metrics neutrality: the instrumented study result is identical to the
	// plain one.
	plain := PaperStudyConfig(42, studyIterations)
	ref, err := RunStudy(TimeMin, plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != ref.Kept ||
		res.AMP.JobTime.Mean() != ref.AMP.JobTime.Mean() ||
		res.ALP.JobCost.Mean() != ref.ALP.JobCost.Mean() ||
		res.AMP.Alternatives != ref.AMP.Alternatives {
		t.Error("attaching metrics changed the study result")
	}

	// Instrumentation cross-checks against the result's own accounting.
	snap := reg.Snapshot()
	if got := snap.Counter("experiments/iterations_total"); got != int64(res.Iterations) {
		t.Errorf("iterations_total %d != %d iterations", got, res.Iterations)
	}
	if got := snap.Counter("experiments/kept_total"); got != int64(res.Kept) {
		t.Errorf("kept_total %d != kept %d", got, res.Kept)
	}
	if got := snap.Counter("experiments/dropped_no_coverage_total"); got != int64(res.DroppedNoCoverage) {
		t.Errorf("dropped_no_coverage_total %d != %d", got, res.DroppedNoCoverage)
	}
	if got := snap.Counter("experiments/dropped_infeasible_total"); got != int64(res.DroppedInfeasible) {
		t.Errorf("dropped_infeasible_total %d != %d", got, res.DroppedInfeasible)
	}
	// The search counters cover every iteration, kept or dropped, so they
	// must dominate the kept-only aggregates.
	for _, c := range []struct {
		name string
		min  int64
	}{
		{"alloc/ALP/slots_examined_total", int64(res.ALP.SearchStats.SlotsExamined)},
		{"alloc/AMP/slots_examined_total", int64(res.AMP.SearchStats.SlotsExamined)},
		{"alloc/ALP/windows_found_total", res.ALP.Alternatives},
		{"alloc/AMP/windows_found_total", res.AMP.Alternatives},
	} {
		if got := snap.Counter(c.name); got < c.min {
			t.Errorf("%s = %d, below the kept-only aggregate %d", c.name, got, c.min)
		}
	}
	// Every kept iteration builds one frontier per algorithm (and dropped
	// ones may add more before failing limits), so builds ≥ 2·kept.
	if got := snap.Counter("dp/frontier/builds_total"); got < 2*int64(res.Kept) {
		t.Errorf("frontier builds %d below 2×kept=%d", got, 2*res.Kept)
	}
}

// TestGoldenFig5SeriesWithMetrics is the scaled-down Fig. 5 golden run: over
// the per-experiment series, AMP's average job time sits below ALP's in
// (essentially) every kept experiment, with instrumentation attached.
func TestGoldenFig5SeriesWithMetrics(t *testing.T) {
	reg := metrics.New()
	cfg := PaperStudyConfig(7, studyIterations)
	cfg.SeriesLength = 40
	cfg.Metrics = reg
	res, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.AMP.TimeSeries.Len()
	if n == 0 {
		t.Fatal("empty series")
	}
	if frac := res.AMP.TimeSeries.FractionBelow(&res.ALP.TimeSeries); frac < 0.85 {
		t.Errorf("golden shape: AMP below ALP in only %.0f%% of %d experiments", 100*frac, n)
	}
	if got := snap(t, reg).Counter("experiments/kept_total"); got < int64(n) {
		t.Errorf("kept_total %d below the series length %d", got, n)
	}
}

// TestStudySnapshotWorkerInvariance asserts the metric snapshot — not just
// the study result — is byte-identical for any worker count: every
// instrument is an order-independent sum over the fixed iteration set.
func TestStudySnapshotWorkerInvariance(t *testing.T) {
	run := func(workers int) string {
		reg := metrics.New()
		setWorkers(t, workers)
		cfg := PaperStudyConfig(17, 80)
		cfg.Metrics = reg
		if _, err := RunStudy(TimeMin, cfg); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Text()
	}
	serial := run(1)
	if serial == "" {
		t.Fatal("empty snapshot")
	}
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != serial {
			t.Fatalf("snapshot depends on the worker count\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				serial, workers, got)
		}
	}
}

func snap(t *testing.T, reg *metrics.Registry) *metrics.Snapshot {
	t.Helper()
	s := reg.Snapshot()
	if s == nil {
		t.Fatal("nil snapshot")
	}
	return s
}
