package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// studyIterations keeps study tests fast while leaving enough kept
// experiments for the shape assertions to be stable.
const studyIterations = 250

func TestTimeMinStudyShape(t *testing.T) {
	cfg := PaperStudyConfig(42, studyIterations)
	res, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept < 30 {
		t.Fatalf("too few kept experiments (%d) for shape assertions", res.Kept)
	}
	if res.Kept+res.DroppedNoCoverage+res.DroppedInfeasible != res.Iterations {
		t.Error("kept + dropped != iterations")
	}

	// Fig. 4a: AMP's average job execution time is clearly below ALP's.
	if !(res.AMP.JobTime.Mean() < res.ALP.JobTime.Mean()*0.85) {
		t.Errorf("Fig4a shape: AMP time %v not well below ALP %v",
			res.AMP.JobTime.Mean(), res.ALP.JobTime.Mean())
	}
	// Fig. 4b: AMP's average job execution cost is above ALP's.
	if !(res.AMP.JobCost.Mean() > res.ALP.JobCost.Mean()*1.05) {
		t.Errorf("Fig4b shape: AMP cost %v not above ALP %v",
			res.AMP.JobCost.Mean(), res.ALP.JobCost.Mean())
	}
	// Section 5 counts: AMP finds several times more alternatives.
	if !(res.AMP.AlternativesPerJob() > 2*res.ALP.AlternativesPerJob()) {
		t.Errorf("alternatives shape: AMP %v not ≫ ALP %v",
			res.AMP.AlternativesPerJob(), res.ALP.AlternativesPerJob())
	}
	// Slots per experiment sit inside the generator band.
	if m := res.SlotsPerExperiment.Mean(); m < 120 || m > 150 {
		t.Errorf("slots/experiment %v outside [120, 150]", m)
	}
	if m := res.JobsPerExperiment.Mean(); m < 3 || m > 7 {
		t.Errorf("jobs/iteration %v outside [3, 7]", m)
	}
}

func TestCostMinStudyShape(t *testing.T) {
	cfg := PaperStudyConfig(42, studyIterations)
	res, err := RunStudy(CostMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept < 30 {
		t.Fatalf("too few kept experiments (%d)", res.Kept)
	}
	// Fig. 6a: ALP's cost advantage exists but is modest (paper: 9%).
	alpCost, ampCost := res.ALP.JobCost.Mean(), res.AMP.JobCost.Mean()
	if !(ampCost > alpCost) {
		t.Errorf("Fig6a shape: AMP cost %v should exceed ALP %v", ampCost, alpCost)
	}
	if ampCost > alpCost*1.35 {
		t.Errorf("Fig6a shape: cost gap %v%% too large for cost minimization",
			100*(ampCost-alpCost)/alpCost)
	}
	// Fig. 6b: AMP remains faster.
	if !(res.AMP.JobTime.Mean() < res.ALP.JobTime.Mean()) {
		t.Errorf("Fig6b shape: AMP time %v not below ALP %v",
			res.AMP.JobTime.Mean(), res.ALP.JobTime.Mean())
	}
}

func TestCostGapSmallerUnderCostMin(t *testing.T) {
	// The paper's contrast between the studies: AMP's cost premium is
	// larger under time-min (+15%) than under cost-min (+9%).
	cfg := PaperStudyConfig(42, studyIterations)
	tm, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := RunStudy(CostMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gapTM := tm.AMP.JobCost.Mean() / tm.ALP.JobCost.Mean()
	gapCM := cm.AMP.JobCost.Mean() / cm.ALP.JobCost.Mean()
	if !(gapCM < gapTM) {
		t.Errorf("cost premium should shrink under cost-min: time-min %v, cost-min %v", gapTM, gapCM)
	}
}

func TestFig5Series(t *testing.T) {
	cfg := PaperStudyConfig(7, studyIterations)
	cfg.SeriesLength = 40
	res, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.AMP.TimeSeries.Len()
	if n == 0 || n > 40 {
		t.Fatalf("series length %d outside (0, 40]", n)
	}
	if res.ALP.TimeSeries.Len() != n {
		t.Fatalf("series lengths differ")
	}
	// Fig. 5's claim: AMP below ALP in (essentially) every experiment.
	frac := res.AMP.TimeSeries.FractionBelow(&res.ALP.TimeSeries)
	if frac < 0.85 {
		t.Errorf("AMP below ALP in only %.0f%% of experiments", 100*frac)
	}
}

func TestStudyDeterminism(t *testing.T) {
	cfg := PaperStudyConfig(11, 60)
	a, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kept != b.Kept ||
		a.AMP.JobTime.Mean() != b.AMP.JobTime.Mean() ||
		a.ALP.JobCost.Mean() != b.ALP.JobCost.Mean() ||
		a.AMP.Alternatives != b.AMP.Alternatives {
		t.Error("same seed produced different study results")
	}
}

func TestStudyValidation(t *testing.T) {
	cfg := PaperStudyConfig(1, 0)
	if _, err := RunStudy(TimeMin, cfg); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestRenderStudyAndSeries(t *testing.T) {
	cfg := PaperStudyConfig(3, 80)
	cfg.SeriesLength = 10
	res, err := RunStudy(TimeMin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderStudy(res)
	for _, frag := range []string{"avg job execution time", "avg job execution cost", "alternatives per job", "kept="} {
		if !strings.Contains(out, frag) {
			t.Errorf("RenderStudy missing %q", frag)
		}
	}
	series := RenderSeries(res)
	if !strings.Contains(series, "ALP avg time") || !strings.Contains(series, "AMP below ALP") {
		t.Errorf("RenderSeries output incomplete:\n%s", series)
	}
}

func TestObjectiveString(t *testing.T) {
	if TimeMin.String() != "time-min" || CostMin.String() != "cost-min" {
		t.Error("objective names wrong")
	}
}

// setWorkers sizes RunStudy's worker pool, which is runtime.GOMAXPROCS(0),
// and restores the previous value when the test ends. A test that calls it
// must not run in parallel with others.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestStudyWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *StudyResult {
		setWorkers(t, workers)
		res, err := RunStudy(TimeMin, PaperStudyConfig(17, 80))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	if serial.Kept != parallel.Kept ||
		serial.ALP.JobTime.Mean() != parallel.ALP.JobTime.Mean() ||
		serial.AMP.JobCost.Mean() != parallel.AMP.JobCost.Mean() ||
		serial.AMP.Alternatives != parallel.AMP.Alternatives ||
		serial.ALP.TimeSeries.Len() != parallel.ALP.TimeSeries.Len() {
		t.Error("results depend on the worker count")
	}
	for i, v := range serial.AMP.TimeSeries.Values {
		if parallel.AMP.TimeSeries.Values[i] != v {
			t.Fatalf("series diverges at %d", i)
		}
	}
}
