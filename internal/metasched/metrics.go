package metasched

import (
	"ecosched/internal/dp"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
)

// schedMetrics holds the scheduler's pre-resolved instruments. Every
// instrument is nil when observability is off (nil Config.Metrics), which
// makes every observation a no-op branch — the scheduling decisions are
// identical with metrics on and off, a contract the metasched differential
// tests pin over 20 seeded sessions.
//
// There is deliberately no wall-clock timing here: per-iteration "phase
// timings" are recorded as deterministic work units (slots published, slots
// examined, frontier points, windows committed) and latency-like quantities
// on the simulated clock (wait ticks, plan ticks), so two identical seeded
// sessions snapshot byte-identically. DESIGN.md §10 spells out the argument.
type schedMetrics struct {
	iterations *metrics.Counter
	batchJobs  *metrics.Histogram
	// Outcome counters per job decision.
	placed       *metrics.Counter
	postponed    *metrics.Counter
	dropped      *metrics.Counter
	requeued     *metrics.Counter
	infeasible   *metrics.Counter
	alternatives *metrics.Counter
	// Sim-time distributions of the schedule's quality.
	waitTicks     *metrics.Histogram
	planTimeTicks *metrics.Histogram
	planCost      *metrics.Histogram
	// Per-phase deterministic work distributions, one observation per
	// iteration that ran the phase.
	phasePublishSlots   *metrics.Histogram
	phaseSearchSlots    *metrics.Histogram
	phaseOptimizePoints *metrics.Histogram
	phaseCommitWindows  *metrics.Histogram
	// Plan-apply outcomes: fast-path applies whose snapshot epoch was still
	// current, re-validated applies whose snapshot had been overtaken, and
	// individual windows the commit rejected as stale.
	planFastPath    *metrics.Counter
	planRevalidated *metrics.Counter
	planStaleWins   *metrics.Counter
	// Retry-policy outcomes for environment-cancelled jobs.
	retryRequeues     *metrics.Counter
	retryBackoffTicks *metrics.Histogram
	retryRelaxations  *metrics.Counter
	retryDropExhaust  *metrics.Counter
	retryDropDeadline *metrics.Counter
	// frontier feeds the dp-level accounting of every built frontier.
	frontier *dp.FrontierMetrics
}

// newSchedMetrics resolves the scheduler instruments under the "metasched/"
// prefix. A nil registry returns the zero value, whose nil instruments
// record nothing.
func newSchedMetrics(r *metrics.Registry) schedMetrics {
	if r == nil {
		return schedMetrics{}
	}
	return schedMetrics{
		iterations:          r.Counter("metasched/iterations_total"),
		batchJobs:           r.Histogram("metasched/batch_jobs", metrics.LinearBuckets(1, 1, 8)),
		placed:              r.Counter("metasched/jobs_placed_total"),
		postponed:           r.Counter("metasched/jobs_postponed_total"),
		dropped:             r.Counter("metasched/jobs_dropped_total"),
		requeued:            r.Counter("metasched/jobs_requeued_total"),
		infeasible:          r.Counter("metasched/plans_infeasible_total"),
		alternatives:        r.Counter("metasched/alternatives_found_total"),
		waitTicks:           r.Histogram("metasched/job_wait_ticks", metrics.ExpBuckets(50, 2, 8)),
		planTimeTicks:       r.Histogram("metasched/plan_time_ticks", metrics.ExpBuckets(50, 2, 8)),
		planCost:            r.Histogram("metasched/plan_cost_credits", metrics.ExpBuckets(125, 2, 9)),
		phasePublishSlots:   r.Histogram("metasched/phase/publish_slots", metrics.ExpBuckets(8, 2, 8)),
		phaseSearchSlots:    r.Histogram("metasched/phase/search_slots_examined", metrics.ExpBuckets(32, 2, 10)),
		phaseOptimizePoints: r.Histogram("metasched/phase/optimize_frontier_points", metrics.ExpBuckets(16, 4, 7)),
		phaseCommitWindows:  r.Histogram("metasched/phase/commit_windows", metrics.LinearBuckets(1, 1, 8)),
		planFastPath:        r.Counter("metasched/plan/applied_fastpath_total"),
		planRevalidated:     r.Counter("metasched/plan/applied_revalidated_total"),
		planStaleWins:       r.Counter("metasched/plan/windows_stale_total"),
		retryRequeues:       r.Counter("metasched/retry/requeues_total"),
		retryBackoffTicks:   r.Histogram("metasched/retry/backoff_ticks", metrics.ExpBuckets(25, 2, 9)),
		retryRelaxations:    r.Counter("metasched/retry/relaxations_total"),
		retryDropExhaust:    r.Counter("metasched/retry/dropped_exhausted_total"),
		retryDropDeadline:   r.Counter("metasched/retry/dropped_deadline_total"),
		frontier:            dp.NewFrontierMetrics(r),
	}
}

func (m *schedMetrics) iterationStarted(batch int) {
	m.iterations.Inc()
	m.batchJobs.Observe(int64(batch))
}

func (m *schedMetrics) searched(slotsExamined, alternatives int) {
	m.phaseSearchSlots.Observe(int64(slotsExamined))
	m.alternatives.Add(int64(alternatives))
}

func (m *schedMetrics) planChosen(t sim.Duration, c sim.Money, windows int) {
	m.planTimeTicks.Observe(int64(t))
	// Money is observed in whole credits; the sub-credit fraction is noise
	// at histogram resolution.
	m.planCost.Observe(int64(c))
	m.phaseCommitWindows.Observe(int64(windows))
}

func (m *schedMetrics) jobPlaced(wait sim.Duration) {
	m.placed.Inc()
	m.waitTicks.Observe(int64(wait))
}

func (m *schedMetrics) retryRequeued(backoff sim.Duration) {
	m.retryRequeues.Inc()
	m.retryBackoffTicks.Observe(int64(backoff))
}

// planApplied records which apply path a non-nil plan took: stale means the
// grid mutated since the plan's snapshot and every window was re-validated;
// otherwise the epoch proved the snapshot exact (fast path).
func (m *schedMetrics) planApplied(stale bool) {
	if stale {
		m.planRevalidated.Inc()
	} else {
		m.planFastPath.Inc()
	}
}

// frontierBuilt records the frontier build that answered this iteration.
func (m *schedMetrics) frontierBuilt(fr *dp.Frontier) {
	fr.Observe(m.frontier)
	m.phaseOptimizePoints.Observe(int64(fr.Size()))
}
