package metasched

import (
	"errors"
	"fmt"

	"ecosched/internal/dp"
	"ecosched/internal/job"
	"ecosched/internal/shard"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/trace"
)

// Iteration is one in-flight scheduling iteration driven step by step:
//
//	it, _ := s.BeginIteration() // seed arrivals, freeze the batch
//	_ = it.Plan()               // publish vacancy, search, optimize
//	_ = it.Apply()              // commit the plan, requeue the rest
//	rep, _ := it.Finish()       // advance the clock, report
//
// RunIteration is exactly this sequence with nothing in between. The split
// exists for drivers that interleave environment dynamics *inside* an
// iteration — the model checker injects node failures, revocations and
// retry ticks between Plan and Apply to enumerate every schedule/commit
// race. Because the environment may invalidate a chosen window after Plan,
// Apply treats the plan as optimistic: each window is re-validated by the
// grid's commit, and a window that no longer fits (node failed, interval
// reclaimed, start overtaken by the clock) postpones its job instead of
// failing the iteration — commit rejection is a scheduling outcome, not an
// error. On an undisturbed run no window can go stale, so the step path is
// byte-identical to the historical monolithic iteration.
type Iteration struct {
	s   *Scheduler
	rep *IterationReport
	// selected is the batch frozen by BeginIteration.
	selected []*queued
	// workers is the Parallelism Plan searches with: the scheduler's, unless
	// the service's round overrides it.
	workers int
	// plan is the optimizer's combination bound to its snapshot epoch; nil
	// when the batch was empty, nothing was covered, or the combination was
	// infeasible.
	plan     *Plan
	planned  bool
	applied  bool
	finished bool
	// placedNames marks the jobs Apply committed.
	placedNames map[string]bool
	// stale counts windows Apply could not commit; staleNames records their
	// jobs in choice order for the service's requeue path.
	stale      int
	staleNames []string
}

// BeginIteration opens a new step-driven iteration: it advances the
// iteration counter, seeds owner-local arrivals over the newly visible
// horizon, and freezes the batch of eligible queued jobs. The queue itself
// is not modified — jobs leave it only in Apply.
func (s *Scheduler) BeginIteration() (*Iteration, error) {
	s.iter++
	rep := &IterationReport{Iteration: s.iter, Now: s.grid.Now()}
	s.cfg.Trace.BeginIteration(s.iter, s.grid.Now())
	horizon := s.grid.Now().Add(s.cfg.Horizon)
	if la := s.cfg.LocalArrivals; la != nil && s.seededTo < horizon {
		from := s.seededTo
		if from < s.grid.Now() {
			from = s.grid.Now()
		}
		if err := s.grid.Populate(la.Load, from, horizon, la.RNG); err != nil {
			return nil, err
		}
		s.seededTo = horizon
	}
	selected := s.batchForIteration()
	rep.BatchSize = len(selected)
	s.metrics.iterationStarted(len(selected))
	return &Iteration{s: s, rep: rep, selected: selected, workers: s.cfg.Parallelism}, nil
}

// Plan runs the two-phase scheme over the frozen batch: publish the local
// schedules as a slot list, search alternative windows per job, and solve
// the configured batch criterion. Plan reads the grid but never writes it,
// and it never touches the queue — a caller can abandon a planned iteration
// (or let the environment shift underneath it) without leaking state.
func (it *Iteration) Plan() error {
	if it.planned || it.finished {
		return fmt.Errorf("metasched: Plan called twice on iteration %d", it.rep.Iteration)
	}
	it.planned = true
	s := it.s
	if len(it.selected) == 0 {
		return nil
	}
	// The snapshot epoch is captured before publication: nothing between
	// here and ShardViews mutates the grid, so a plan stamped with this epoch
	// was provably searched against the state it names.
	epoch := s.grid.Epoch()
	horizon := s.grid.Now().Add(s.cfg.Horizon)
	jobs := make([]*job.Job, len(it.selected))
	for i, q := range it.selected {
		jobs[i] = q.job
	}
	batch, err := job.NewBatch(jobs)
	if err != nil {
		return err
	}
	// One publication for every K: each shard's view is a clone of its live
	// store (one shard when unsharded), which the search adopts instead of
	// building an index — the windows the previous iteration committed
	// already landed in the stores as deltas. The search scans one view
	// directly and merges several in canonical order, so the trace and the
	// schedule are byte-identical for every shard count.
	views, err := s.grid.ShardViews(horizon)
	if err != nil {
		return err
	}
	vacantLen := 0
	for _, v := range views {
		vacantLen += v.Len()
	}
	if s.cfg.DemandPricing != nil {
		factor := s.cfg.DemandPricing.factor(s.grid.Utilization(horizon))
		it.rep.PriceFactor = float64(factor)
		// Repricing derives fresh lists the store's indexes do not describe;
		// this iteration pays an index build per view.
		var im *slot.IndexMetrics
		if s.cfg.Search.Metrics != nil {
			im = s.cfg.Search.Metrics.Index
		}
		for i, v := range views {
			repriced := v.List().Reprice(func(sl slot.Slot) sim.Money { return sl.Price * factor })
			views[i] = slot.NewIndex(repriced, im)
		}
		s.cfg.Trace.Record(trace.Repriced, "", "utilization factor %.3f over %d slots", float64(factor), vacantLen)
	}
	s.shardMetrics.Published(views)
	s.metrics.published(vacantLen)
	s.cfg.Trace.Record(trace.SearchStarted, "", "%s over %d slots for %d jobs", s.cfg.Algorithm.Name(), vacantLen, batch.Len())
	search, err := shard.Search(s.cfg.Algorithm, s.part, views, batch, s.cfg.Search, it.workers, s.shardMetrics)
	if err != nil {
		return err
	}
	it.rep.Alternatives = search.TotalAlternatives()
	s.metrics.searched(search.Stats.SlotsExamined, it.rep.Alternatives)
	for _, j := range batch.Jobs() {
		ws := search.Alternatives[j.Name]
		if len(ws) == 0 {
			s.cfg.Trace.Record(trace.SearchFailed, j.Name, "no suitable window on the current list")
			continue
		}
		for _, w := range ws {
			s.cfg.Trace.Record(trace.WindowFound, j.Name, "%v", w)
		}
	}

	// Only covered jobs enter the optimization; the rest are postponed.
	var covered []*job.Job
	for _, j := range batch.Jobs() {
		if len(search.Alternatives[j.Name]) > 0 {
			covered = append(covered, j)
		}
	}
	if len(covered) == 0 {
		return nil
	}
	subBatch, err := job.NewBatch(covered)
	if err != nil {
		return err
	}
	plan, err := s.optimize(subBatch, dp.Alternatives(search.Alternatives))
	if err != nil {
		var inf *dp.ErrInfeasible
		if !errors.As(err, &inf) {
			return err
		}
		// Infeasible combination: postpone the whole batch.
		s.metrics.planInfeasible()
		return nil
	}
	s.cfg.Trace.Record(trace.PlanChosen, "", "%s: T=%v C=%v over %d jobs",
		s.cfg.Policy, plan.TotalTime, plan.TotalCost, len(plan.Choices))
	s.metrics.planChosen(plan.TotalTime, plan.TotalCost, len(plan.Choices))
	it.plan = newPlan(it.rep.Iteration, epoch, plan)
	it.rep.PlanTime = plan.TotalTime
	it.rep.PlanCost = plan.TotalCost
	return nil
}

// InstallPlan hands the iteration a plan produced elsewhere, standing in for
// Plan(): journal replay skips the alternative search and re-applies exactly
// the recorded combination through the normal Apply path, which re-validates
// every window via the grid's commit. A nil plan is the "planned nothing"
// outcome (empty or uncovered batch). The search-phase grid reads Plan would
// have done are pure (publication never mutates observable state), so an
// installed iteration finishes in a state byte-identical to the searched one.
func (it *Iteration) InstallPlan(p *Plan) error {
	if it.planned || it.applied || it.finished {
		return fmt.Errorf("metasched: InstallPlan on iteration %d out of order (planned=%t applied=%t finished=%t)",
			it.rep.Iteration, it.planned, it.applied, it.finished)
	}
	it.planned = true
	it.plan = p
	if p != nil {
		it.rep.PlanTime = p.TotalTime
		it.rep.PlanCost = p.TotalCost
	}
	return nil
}

// PendingPlan returns the combination Plan produced and Apply has not yet
// consumed: nil before Plan, after Apply, or when the iteration planned
// nothing. The service's evaluation phase hands this to its applier.
func (it *Iteration) PendingPlan() *Plan {
	if !it.planned || it.applied {
		return nil
	}
	return it.plan
}

// Apply commits the planned combination and resolves the rest of the batch.
// Each window commit is atomic: the grid books all placements or none, so a
// window invalidated since Plan (failed node, reclaimed interval, start in
// the past) is rejected cleanly and its job is postponed like any other
// uncovered job — no booking, queue entry, or placed record leaks from the
// rejection. Jobs the batch attempted but did not place take a postponement
// (dropping at the cap); everything else stays queued untouched.
func (it *Iteration) Apply() error {
	if !it.planned || it.applied || it.finished {
		return fmt.Errorf("metasched: Apply on iteration %d out of order (planned=%t applied=%t finished=%t)",
			it.rep.Iteration, it.planned, it.applied, it.finished)
	}
	it.applied = true
	s := it.s
	it.placedNames = map[string]bool{}
	if it.plan != nil {
		// The epoch comparison is pure accounting: a fresh plan's snapshot is
		// provably exact so every commit below must succeed, while a stale
		// plan rides the same re-validating commits and merely counts as
		// re-validated. The schedule never depends on the epoch.
		s.metrics.planApplied(it.plan.Stale(s.grid.Epoch()))
		for _, ch := range it.plan.Choices {
			if err := s.grid.Commit(ch.Window); err != nil {
				// The window went stale between Plan and Apply; the grid
				// rolled back its partial placements, so postponing is
				// side-effect-free.
				it.stale++
				it.staleNames = append(it.staleNames, ch.Job.Name)
				s.metrics.planWindowStale()
				s.cfg.Trace.Record(trace.PlanStale, ch.Job.Name, "window rejected at commit: %v", err)
				continue
			}
			s.cfg.Trace.Record(trace.Committed, ch.Job.Name, "%v", ch.Window)
			sub := s.findQueued(ch.Job.Name)
			if sub == nil {
				// Internal invariant violation — but leave no trace of the
				// half-placed job behind: releasing the fresh booking
				// refunds exactly what the commit charged.
				s.grid.CancelJob(ch.Job.Name)
				return fmt.Errorf("metasched: placed job %q is not in the queue", ch.Job.Name)
			}
			it.placedNames[ch.Job.Name] = true
			s.placed[ch.Job.Name] = ch.Job
			wait := ch.Window.Start().Sub(sub.submitTick)
			s.metrics.jobPlaced(wait)
			it.rep.Placed = append(it.rep.Placed, Scheduled{
				Job:       ch.Job,
				Window:    &dp.Choice{Job: ch.Job, Window: ch.Window},
				Iteration: it.rep.Iteration,
				WaitTime:  wait,
			})
		}
	}

	// Requeue or drop the rest.
	var remaining []*queued
	for _, q := range s.queue {
		if it.placedNames[q.job.Name] {
			continue
		}
		attempted := false
		for _, sel := range it.selected {
			if sel.job.Name == q.job.Name {
				attempted = true
				break
			}
		}
		if attempted {
			q.postponed++
			if s.cfg.MaxPostponements > 0 && q.postponed >= s.cfg.MaxPostponements {
				it.rep.Dropped = append(it.rep.Dropped, q.job.Name)
				s.droppedJobs[q.job.Name] = "postponements"
				s.cfg.Trace.Record(trace.Dropped, q.job.Name, "after %d postponements", q.postponed)
				s.metrics.jobDropped()
				continue
			}
			it.rep.Postponed = append(it.rep.Postponed, q.job.Name)
			s.cfg.Trace.Record(trace.Postponed, q.job.Name, "postponement %d", q.postponed)
			s.metrics.jobPostponed()
		}
		remaining = append(remaining, q)
	}
	s.queue = remaining
	return nil
}

// StaleWindows returns how many chosen windows Apply rejected because the
// environment invalidated them between Plan and Apply; always zero on an
// undisturbed run.
func (it *Iteration) StaleWindows() int { return it.stale }

// StaleJobs returns the names of the jobs whose chosen windows Apply
// rejected, in choice order. The service requeues an evaluation for each.
func (it *Iteration) StaleJobs() []string { return it.staleNames }

// Finish advances the clock by the configured step and returns the
// iteration report. An iteration whose batch was empty may skip Plan and
// Apply; one that planned must apply before finishing.
func (it *Iteration) Finish() (*IterationReport, error) {
	if it.finished {
		return nil, fmt.Errorf("metasched: Finish called twice on iteration %d", it.rep.Iteration)
	}
	if it.planned && !it.applied && len(it.selected) > 0 {
		return nil, fmt.Errorf("metasched: Finish on iteration %d before Apply", it.rep.Iteration)
	}
	it.finished = true
	s := it.s
	return it.rep, s.grid.Advance(s.grid.Now().Add(s.cfg.Step))
}
