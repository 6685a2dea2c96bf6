package metasched

import (
	"errors"
	"fmt"

	"ecosched/internal/dp"
	"ecosched/internal/job"
	"ecosched/internal/shard"
	"ecosched/internal/trace"
)

// Round is one in-flight scheduling round, driven phase by phase:
//
//	r, _ := sv.BeginRound() // seed arrivals, freeze the batch
//	_ = r.Evaluate()        // publish vacancy, search, optimize
//	_ = r.Apply()           // commit the plan, postpone the rest
//	rep, _ := r.Finish()    // advance the clock, report
//
// Service.Tick is exactly this sequence with nothing in between. The split
// exists for drivers that interleave environment dynamics *inside* a round —
// the model checker injects node failures, revocations and clock ticks
// between Evaluate and Apply to enumerate every schedule/commit race. Because
// the environment may invalidate a chosen window after Evaluate, Apply treats
// the plan as optimistic: each window is re-validated by the grid's commit,
// and a window that no longer fits (node failed, interval reclaimed, start
// overtaken by the clock) postpones its job, which stays queued and is in
// the next round's batch, instead of failing the round — commit rejection is
// a scheduling outcome, not an error. On an undisturbed run no window can go
// stale.
type Round struct {
	sv  *Service
	rep *IterationReport
	// selected is the batch frozen by BeginRound.
	selected []*queued
	// plan is the optimizer's combination bound to its snapshot epoch; nil
	// when the batch was empty, nothing was covered, or the combination was
	// infeasible.
	plan     *Plan
	planned  bool
	applied  bool
	finished bool
	// staleNames records, in choice order, the jobs whose windows Apply
	// could not commit.
	staleNames []string
}

// BeginRound opens a round: it advances the iteration counter, seeds
// owner-local arrivals over the newly visible horizon, and freezes the batch
// of eligible queued jobs. The job queue itself is not modified — jobs leave
// it only in Apply. Only one round may be open at a time.
func (sv *Service) BeginRound() (*Round, error) {
	if sv.round != nil {
		return nil, fmt.Errorf("metasched: round already open on iteration %d", sv.round.rep.Iteration)
	}
	s := sv.s
	now := s.grid.Now()
	s.iter++
	rep := &IterationReport{Iteration: s.iter, Now: now}
	s.cfg.Trace.BeginIteration(s.iter, now)
	horizon := now.Add(s.cfg.Horizon)
	if la := s.cfg.LocalArrivals; la != nil && s.seededTo < horizon {
		from := s.seededTo
		if from < now {
			from = now
		}
		if err := s.grid.Populate(la.Load, from, horizon, la.RNG); err != nil {
			return nil, err
		}
		s.seededTo = horizon
	}
	selected := s.batchForIteration()
	rep.BatchSize = len(selected)
	s.metrics.iterationStarted(len(selected))

	sv.round = &Round{sv: sv, rep: rep, selected: selected}
	return sv.round, nil
}

// Iteration returns the round itself.
//
// Deprecated: the round is the iteration; call its methods directly. Kept
// only for the frozen benchmark harness (ROADMAP 2(c)).
func (r *Round) Iteration() *Round { return r }

// Evaluate runs the two-phase scheme over the frozen batch: publish the local
// schedules as per-shard vacancy views stamped with the grid epoch, search
// alternative windows per job, and solve the configured batch criterion. The
// resulting Plan is held pending until Apply. Evaluate reads the grid but
// never writes it, and it never touches the job queue — the environment may
// shift underneath an evaluated round without leaking state.
func (r *Round) Evaluate() error {
	if r.planned || r.finished {
		return fmt.Errorf("metasched: Evaluate called twice on iteration %d", r.rep.Iteration)
	}
	r.planned = true
	s := r.sv.s
	if len(r.selected) == 0 {
		return nil
	}
	// The snapshot epoch is captured before publication: nothing between
	// here and ShardViews mutates the grid, so a plan stamped with this epoch
	// was provably searched against the state it names.
	epoch := s.grid.Epoch()
	horizon := s.grid.Now().Add(s.cfg.Horizon)
	jobs := make([]*job.Job, len(r.selected))
	for i, q := range r.selected {
		jobs[i] = q.job
	}
	batch, err := job.NewBatch(jobs)
	if err != nil {
		return err
	}
	// One publication for every K: each shard's view is a clone of its live
	// store (one shard when unsharded), which the search adopts instead of
	// building an index — the windows the previous round committed already
	// landed in the stores as deltas. The search scans one view directly and
	// merges several in canonical order, so the trace and the schedule are
	// byte-identical for every shard count.
	views, err := s.grid.ShardViews(horizon)
	if err != nil {
		return err
	}
	vacantLen := 0
	for _, v := range views {
		vacantLen += v.Len()
	}
	s.shardMetrics.Published(views)
	s.metrics.phasePublishSlots.Observe(int64(vacantLen))
	s.cfg.Trace.Record(trace.SearchStarted, "", "%s over %d slots for %d jobs", s.cfg.Algorithm.Name(), vacantLen, batch.Len())
	search, err := shard.Search(s.cfg.Algorithm, s.part, views, batch, s.cfg.Search, s.shardMetrics)
	// The windows hold their slots by value: the views go back to the stores
	// now, so the stores' next writes land in buckets they own again.
	s.grid.ReleaseViews(views)
	if err != nil {
		return err
	}
	r.rep.Alternatives = search.TotalAlternatives()
	s.metrics.searched(search.Stats.SlotsExamined, r.rep.Alternatives)
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
		s.metrics.infeasible.Inc()
		return nil
	}
	s.cfg.Trace.Record(trace.PlanChosen, "", "%s: T=%v C=%v over %d jobs",
		s.cfg.Policy, plan.TotalTime, plan.TotalCost, len(plan.Choices))
	s.metrics.planChosen(plan.TotalTime, plan.TotalCost, len(plan.Choices))
	r.plan = newPlan(r.rep.Iteration, epoch, plan)
	r.rep.PlanTime = plan.TotalTime
	r.rep.PlanCost = plan.TotalCost
	return nil
}

// InstallPlan hands the round a plan produced elsewhere, standing in for
// Evaluate: journal replay skips the alternative search and re-applies
// exactly the recorded combination through the normal Apply path, which
// re-validates every window via the grid's commit. A nil plan is the
// "planned nothing" outcome (empty or uncovered batch). The grid reads
// Evaluate would have done are pure (publication never mutates observable
// state), so an installed round finishes in a state byte-identical to the
// searched one.
func (r *Round) InstallPlan(p *Plan) error {
	if r.planned || r.applied || r.finished {
		return fmt.Errorf("metasched: InstallPlan on iteration %d out of order (planned=%t applied=%t finished=%t)",
			r.rep.Iteration, r.planned, r.applied, r.finished)
	}
	r.planned = true
	r.plan = p
	if p != nil {
		r.rep.PlanTime = p.TotalTime
		r.rep.PlanCost = p.TotalCost
	}
	return nil
}

// Plan returns the round's pending plan: non-nil between Evaluate (or
// InstallPlan) and Apply when a combination was chosen.
func (r *Round) Plan() *Plan {
	if !r.planned || r.applied {
		return nil
	}
	return r.plan
}

// Apply is the serial applier. It commits the pending combination window by
// window; each commit is atomic — the grid books all placements or none — so
// a window invalidated since Evaluate (failed node, reclaimed interval, start
// in the past) is rejected cleanly and its job is postponed like any other
// uncovered job, with no booking, queue entry or placed record leaking from
// the rejection. Jobs the batch attempted but did not place take a
// postponement (dropping at the cap); everything else stays queued
// untouched. A stale job keeps its place in the queue with no backoff, so
// the next round's batch holds it again.
func (r *Round) Apply() error {
	if !r.planned || r.applied || r.finished {
		return fmt.Errorf("metasched: Apply on iteration %d out of order (planned=%t applied=%t finished=%t)",
			r.rep.Iteration, r.planned, r.applied, r.finished)
	}
	r.applied = true
	s := r.sv.s
	placed := map[string]bool{}
	if r.plan != nil {
		// The epoch comparison is pure accounting: a fresh plan's snapshot is
		// provably exact so every commit below must succeed, while a stale
		// plan rides the same re-validating commits and merely counts as
		// re-validated. The schedule never depends on the epoch.
		s.metrics.planApplied(r.plan.Stale(s.grid.Epoch()))
		for _, ch := range r.plan.Choices {
			if err := s.grid.Commit(ch.Window); err != nil {
				// The window went stale between Evaluate and Apply; the grid
				// rolled back its partial placements, so postponing is
				// side-effect-free.
				r.staleNames = append(r.staleNames, ch.Job.Name)
				s.metrics.planStaleWins.Inc()
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
			placed[ch.Job.Name] = true
			s.placed[ch.Job.Name] = ch.Job
			wait := ch.Window.Start().Sub(sub.submitTick)
			s.metrics.jobPlaced(wait)
			r.rep.Placed = append(r.rep.Placed, Scheduled{
				Job:       ch.Job,
				Window:    &dp.Choice{Job: ch.Job, Window: ch.Window},
				Iteration: r.rep.Iteration,
				WaitTime:  wait,
			})
		}
	}

	// Postpone or drop the rest.
	var remaining []*queued
	for _, q := range s.queue {
		if placed[q.job.Name] {
			continue
		}
		attempted := false
		for _, sel := range r.selected {
			if sel.job.Name == q.job.Name {
				attempted = true
				break
			}
		}
		if attempted {
			q.postponed++
			if s.cfg.MaxPostponements > 0 && q.postponed >= s.cfg.MaxPostponements {
				r.rep.Dropped = append(r.rep.Dropped, q.job.Name)
				s.droppedJobs[q.job.Name] = "postponements"
				s.cfg.Trace.Record(trace.Dropped, q.job.Name, "after %d postponements", q.postponed)
				s.metrics.dropped.Inc()
				continue
			}
			r.rep.Postponed = append(r.rep.Postponed, q.job.Name)
			s.cfg.Trace.Record(trace.Postponed, q.job.Name, "postponement %d", q.postponed)
			s.metrics.postponed.Inc()
		}
		remaining = append(remaining, q)
	}
	s.queue = remaining
	return nil
}

// StaleWindows returns how many chosen windows Apply rejected because the
// environment invalidated them between Evaluate and Apply; always zero on an
// undisturbed run.
func (r *Round) StaleWindows() int { return len(r.staleNames) }

// StaleJobs returns the names of the jobs whose chosen windows Apply
// rejected, in choice order; each was postponed.
func (r *Round) StaleJobs() []string { return r.staleNames }

// Finish closes the round: the clock advances by the configured step and the
// iteration report is returned. Only a round whose batch was empty may skip
// Evaluate and Apply; one with a batch must apply it first, or the batch
// would leave the round neither placed nor postponed. A rejected call leaves
// the round open and the scheduler untouched.
func (r *Round) Finish() (*IterationReport, error) {
	if r.finished {
		return nil, fmt.Errorf("metasched: Finish called twice on iteration %d", r.rep.Iteration)
	}
	if !r.applied && len(r.selected) > 0 {
		return nil, fmt.Errorf("metasched: Finish on iteration %d before Apply", r.rep.Iteration)
	}
	r.finished = true
	if r.sv.round == r {
		r.sv.round = nil
	}
	s := r.sv.s
	return r.rep, s.grid.Advance(s.grid.Now().Add(s.cfg.Step))
}
