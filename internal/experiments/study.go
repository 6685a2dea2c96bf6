package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
	"ecosched/internal/workload"
)

// Objective selects the batch optimization problem of a study.
type Objective int

const (
	// TimeMin minimizes T(s̄) subject to C(s̄) ≤ B* (Figs. 4–5).
	TimeMin Objective = iota
	// CostMin minimizes C(s̄) subject to T(s̄) ≤ T* (Fig. 6).
	CostMin
)

// String names the objective.
func (o Objective) String() string {
	if o == CostMin {
		return "cost-min"
	}
	return "time-min"
}

// StudyConfig parameterizes a simulation study.
type StudyConfig struct {
	// Seed drives the whole study; iteration k uses the substream
	// derived from (Seed, k), so individual iterations can be replayed.
	Seed uint64
	// Iterations is the number of simulated scheduling iterations
	// (25 000 in the paper's Figs. 4–5 run).
	Iterations int
	// SlotGen and JobGen produce the per-iteration input.
	SlotGen workload.SlotGenerator
	JobGen  workload.JobGenerator
	// SlotSource, when non-nil, overrides SlotGen (e.g. the clustered
	// domain-structured generator).
	SlotSource workload.SlotSource
	// SeriesLength is how many kept experiments feed the per-experiment
	// series of Fig. 5; zero selects 300.
	SeriesLength int
	// Search tunes the alternative search (zero value = the paper's
	// unlimited multi-pass search).
	Search alloc.SearchOptions
	// Metrics, when non-nil, receives the study's observability counters
	// (inclusion outcomes, per-algorithm search instruments, frontier
	// accounting). Instrumentation never changes a result, the final
	// snapshot is identical for any worker count, and nil disables it at
	// zero cost.
	Metrics *metrics.Registry
}

// PaperStudyConfig returns the Section 5 configuration with the given seed
// and iteration count.
func PaperStudyConfig(seed uint64, iterations int) StudyConfig {
	return StudyConfig{
		Seed:       seed,
		Iterations: iterations,
		SlotGen:    workload.PaperSlotGenerator(),
		JobGen:     workload.PaperJobGenerator(),
	}
}

// slotSource returns the effective slot source.
func (c *StudyConfig) slotSource() workload.SlotSource {
	if c.SlotSource != nil {
		return c.SlotSource
	}
	return c.SlotGen
}

func (c *StudyConfig) seriesLength() int {
	if c.SeriesLength <= 0 {
		return 300
	}
	return c.SeriesLength
}

// AlgoAggregate accumulates one algorithm's results over the kept
// experiments of a study.
type AlgoAggregate struct {
	Name string
	// JobTime and JobCost aggregate the per-experiment average job
	// execution time and cost of the chosen plan (the quantities behind
	// Figs. 4 and 6).
	JobTime stats.Online
	JobCost stats.Online
	// Alternatives and Jobs count totals over kept experiments, giving
	// the paper's "average alternatives per job".
	Alternatives int64
	Jobs         int64
	// TimeSeries holds the first SeriesLength per-experiment average job
	// times (Fig. 5).
	TimeSeries stats.Series
	// SearchStats accumulates scan counters over kept experiments.
	SearchStats alloc.Stats
}

// AlternativesPerJob returns total alternatives / total jobs.
func (a *AlgoAggregate) AlternativesPerJob() float64 {
	if a.Jobs == 0 {
		return 0
	}
	return float64(a.Alternatives) / float64(a.Jobs)
}

// StudyResult is the outcome of RunStudy.
type StudyResult struct {
	Objective  Objective
	Iterations int
	// Kept counts experiments where both algorithms covered every job
	// with at least one alternative and the optimizer found a feasible
	// combination — the paper's inclusion criterion.
	Kept int
	// DroppedNoCoverage and DroppedInfeasible split the exclusions.
	DroppedNoCoverage int
	DroppedInfeasible int
	ALP               AlgoAggregate
	AMP               AlgoAggregate
	// SlotsPerExperiment and JobsPerExperiment reproduce the auxiliary
	// Section 5 statistics (135.11 slots, 4.18 jobs on kept cost-min
	// experiments).
	SlotsPerExperiment stats.Online
	JobsPerExperiment  stats.Online
}

// iterationOutcome is one algorithm's result on one scenario.
type iterationOutcome struct {
	plan   *dp.Plan
	search *alloc.SearchResult
}

// runAlgorithm executes search + limit derivation + optimization for one
// algorithm on one scenario. A nil plan with nil error means the experiment
// must be dropped (no coverage); an ErrInfeasible also drops it.
func runAlgorithm(algo alloc.Algorithm, sc *workload.Scenario, obj Objective, cfg *StudyConfig, sm *studyMetrics) (*iterationOutcome, bool, error) {
	opts := cfg.Search
	opts.Metrics = sm.alp
	if algo.Name() == "AMP" {
		opts.Metrics = sm.amp
	}
	res, err := alloc.FindAlternatives(algo, sc.Slots, sc.Batch, opts)
	if err != nil {
		return nil, false, err
	}
	if !res.AllJobsCovered(sc.Batch) {
		return &iterationOutcome{search: res}, false, nil
	}
	alts := dp.Alternatives(res.Alternatives)
	// One sparse backward pass serves the limit derivation and the policy
	// run.
	fr, err := dp.NewFrontier(sc.Batch, alts)
	if err != nil {
		return nil, false, err
	}
	fr.Observe(sm.frontier)
	limits, err := fr.Limits()
	if err != nil {
		var inf *dp.ErrInfeasible
		if errors.As(err, &inf) {
			return &iterationOutcome{search: res}, false, nil
		}
		return nil, false, err
	}
	var plan *dp.Plan
	switch obj {
	case TimeMin:
		plan, err = fr.MinimizeTime(limits.Budget)
	case CostMin:
		plan, err = fr.MinimizeCost(limits.Quota)
	default:
		return nil, false, fmt.Errorf("experiments: unknown objective %d", obj)
	}
	if err != nil {
		var inf *dp.ErrInfeasible
		if errors.As(err, &inf) {
			return &iterationOutcome{search: res}, false, nil
		}
		return nil, false, err
	}
	return &iterationOutcome{plan: plan, search: res}, true, nil
}

// iterSummary is the per-iteration reduction input: everything RunStudy
// aggregates, with the heavyweight scenario and window data already
// discarded so 25 000 parallel iterations stay cheap to buffer.
type iterSummary struct {
	kept       bool
	noCoverage bool
	slots      int
	jobs       int
	alp, amp   algoSummary
}

type algoSummary struct {
	avgTime      float64
	avgCost      float64
	alternatives int64
	stats        alloc.Stats
}

// runIteration executes one simulated scheduling iteration end to end.
func runIteration(seed uint64, obj Objective, cfg *StudyConfig, sm *studyMetrics) (iterSummary, error) {
	var sum iterSummary
	sc, err := workload.GenerateScenarioFrom(cfg.slotSource(), cfg.JobGen, sim.NewRNG(seed))
	if err != nil {
		return sum, err
	}
	alpOut, alpOK, err := runAlgorithm(alloc.ALP{}, sc, obj, cfg, sm)
	if err != nil {
		return sum, err
	}
	ampOut, ampOK, err := runAlgorithm(alloc.AMP{}, sc, obj, cfg, sm)
	if err != nil {
		return sum, err
	}
	if !alpOK || !ampOK {
		sum.noCoverage = (alpOut.search != nil && !alpOut.search.AllJobsCovered(sc.Batch)) ||
			(ampOut.search != nil && !ampOut.search.AllJobsCovered(sc.Batch))
		return sum, nil
	}
	sum.kept = true
	sum.slots = sc.Slots.Len()
	sum.jobs = sc.Batch.Len()
	sum.alp = summarize(alpOut)
	sum.amp = summarize(ampOut)
	return sum, nil
}

func summarize(out *iterationOutcome) algoSummary {
	return algoSummary{
		avgTime:      out.plan.AverageTime(),
		avgCost:      out.plan.AverageCost(),
		alternatives: int64(out.search.TotalAlternatives()),
		stats:        out.search.Stats,
	}
}

// RunStudy executes the simulation study: cfg.Iterations scheduling
// iterations, each with a fresh scenario scheduled independently by ALP and
// AMP, keeping the paper's inclusion criterion. Iterations run on
// runtime.GOMAXPROCS(0) workers; the per-iteration seeds are drawn
// sequentially up front and the reduction folds results in index order, so
// the outcome is bit-identical for any worker count.
func RunStudy(obj Objective, cfg StudyConfig) (*StudyResult, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("experiments: non-positive iteration count %d", cfg.Iterations)
	}
	res := &StudyResult{
		Objective:  obj,
		Iterations: cfg.Iterations,
		ALP:        AlgoAggregate{Name: "ALP", TimeSeries: stats.Series{Name: "ALP"}},
		AMP:        AlgoAggregate{Name: "AMP", TimeSeries: stats.Series{Name: "AMP"}},
	}
	sm := newStudyMetrics(cfg.Metrics)
	// Per-iteration seeds, exactly as the sequential implementation drew
	// them (root stream xor iteration index).
	root := sim.NewRNG(cfg.Seed)
	seeds := make([]uint64, cfg.Iterations)
	for it := range seeds {
		seeds[it] = root.Uint64() ^ uint64(it)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Iterations {
		workers = cfg.Iterations
	}

	summaries := make([]iterSummary, cfg.Iterations)
	errs := make([]error, cfg.Iterations)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it := int(next.Add(1)) - 1
				if it >= cfg.Iterations {
					return
				}
				summaries[it], errs[it] = runIteration(seeds[it], obj, &cfg, &sm)
			}
		}()
	}
	wg.Wait()

	// Ordered reduction: identical to the sequential fold.
	for it := 0; it < cfg.Iterations; it++ {
		if errs[it] != nil {
			return nil, errs[it]
		}
		sum := summaries[it]
		sm.reduce(sum)
		if !sum.kept {
			if sum.noCoverage {
				res.DroppedNoCoverage++
			} else {
				res.DroppedInfeasible++
			}
			continue
		}
		res.Kept++
		res.SlotsPerExperiment.Add(float64(sum.slots))
		res.JobsPerExperiment.Add(float64(sum.jobs))
		record(&res.ALP, sum.alp, sum.jobs, cfg.seriesLength())
		record(&res.AMP, sum.amp, sum.jobs, cfg.seriesLength())
	}
	return res, nil
}

func record(agg *AlgoAggregate, sum algoSummary, jobs int, seriesLen int) {
	agg.JobTime.Add(sum.avgTime)
	agg.JobCost.Add(sum.avgCost)
	agg.Alternatives += sum.alternatives
	agg.Jobs += int64(jobs)
	agg.SearchStats.Add(sum.stats)
	if agg.TimeSeries.Len() < seriesLen {
		agg.TimeSeries.Add(sum.avgTime)
	}
}

// RenderStudy produces the text report for a study: the Fig. 4 or Fig. 6
// bars plus the Section 5 count statistics. Mean entries carry the 95%
// confidence half-width over the kept experiments.
func RenderStudy(r *StudyResult) string {
	withCI := func(o *stats.Online) string {
		return fmt.Sprintf("%.2f ±%.2f", o.Mean(), o.CI95())
	}
	t := stats.NewTable("metric", "ALP", "AMP", "delta%")
	t.AddRow("avg job execution time", withCI(&r.ALP.JobTime), withCI(&r.AMP.JobTime),
		stats.PercentDelta(r.ALP.JobTime.Mean(), r.AMP.JobTime.Mean()))
	t.AddRow("avg job execution cost", withCI(&r.ALP.JobCost), withCI(&r.AMP.JobCost),
		stats.PercentDelta(r.ALP.JobCost.Mean(), r.AMP.JobCost.Mean()))
	t.AddRow("alternatives per job", r.ALP.AlternativesPerJob(), r.AMP.AlternativesPerJob(),
		stats.PercentDelta(r.ALP.AlternativesPerJob(), r.AMP.AlternativesPerJob()))
	t.AddRow("total alternatives", r.ALP.Alternatives, r.AMP.Alternatives, "")
	out := fmt.Sprintf("objective=%v iterations=%d kept=%d dropped(no-coverage)=%d dropped(infeasible)=%d\n",
		r.Objective, r.Iterations, r.Kept, r.DroppedNoCoverage, r.DroppedInfeasible)
	out += fmt.Sprintf("slots/experiment=%.2f jobs/iteration=%.2f\n\n",
		r.SlotsPerExperiment.Mean(), r.JobsPerExperiment.Mean())
	return out + t.String()
}

// RenderSeries prints the Fig. 5 per-experiment comparison: index, ALP
// value, AMP value, one row per kept experiment in the series window.
func RenderSeries(r *StudyResult) string {
	t := stats.NewTable("experiment", "ALP avg time", "AMP avg time")
	n := r.ALP.TimeSeries.Len()
	if r.AMP.TimeSeries.Len() < n {
		n = r.AMP.TimeSeries.Len()
	}
	for i := 0; i < n; i++ {
		t.AddRow(i+1, r.ALP.TimeSeries.Values[i], r.AMP.TimeSeries.Values[i])
	}
	frac := r.AMP.TimeSeries.FractionBelow(&r.ALP.TimeSeries)
	return t.String() + fmt.Sprintf("\nAMP below ALP in %.1f%% of the %d experiments\n", 100*frac, n)
}
