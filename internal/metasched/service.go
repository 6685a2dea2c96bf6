package metasched

import (
	"fmt"
	"strings"

	"ecosched/internal/job"
	"ecosched/internal/sim"
)

// ServiceConfig parameterizes the continuous-service wrapper.
type ServiceConfig struct {
	// Workers bounds the planning worker pool of each evaluation round: it
	// overrides the scheduler's Parallelism (the producer goroutines of a
	// sharded search's refill round) for that round's search only. The apply
	// phase is always serial — a single applier re-validates every plan —
	// and the search result does not depend on the worker count, so
	// transcripts are byte-identical for every Workers value. 0 inherits the
	// scheduler's configured Parallelism.
	Workers int
}

// Validate checks the service parameters.
func (c ServiceConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("metasched: negative service workers %d", c.Workers)
	}
	return nil
}

// Service wraps a Scheduler as a long-running, event-driven metascheduler —
// the eval/plan/apply architecture: events (job submission, node failure and
// recovery, interval revocation, clock ticks) enqueue evaluations; a round
// consumes the due evaluations and plans against a copy-on-write vacancy
// snapshot stamped with the grid's mutation epoch; and a serial applier
// re-validates the plan window by window, rejecting stale windows into a
// requeue-with-backoff path that reuses the retry policy's deterministic
// backoff.
//
// The service is deterministic by construction: a round is exactly the
// scheduler's BeginIteration → Plan → Apply → Finish step sequence, with the
// evaluation queue consumed at the round boundary and never influencing a
// scheduling decision (planning always reads the full current state). With
// a fixed seed and event order, driving the service tick by tick therefore
// produces byte-identical session transcripts to batch RunIteration — the
// 20-seed service differential pins this across every engine toggle.
type Service struct {
	s   *Scheduler
	cfg ServiceConfig
	q   evalQueue
	m   *serviceMetrics
	// round is the open evaluation round; nil between rounds.
	round *Round
	// requeues counts per-job stale-rejection requeues, the attempt number
	// fed to the retry policy's backoff.
	requeues map[string]int
}

// NewService wraps the scheduler.
func NewService(s *Scheduler, cfg ServiceConfig) (*Service, error) {
	if s == nil {
		return nil, fmt.Errorf("metasched: nil scheduler")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Service{
		s:        s,
		cfg:      cfg,
		m:        newServiceMetrics(s.cfg.Metrics),
		requeues: make(map[string]int),
	}, nil
}

// Scheduler returns the wrapped scheduler.
func (sv *Service) Scheduler() *Scheduler { return sv.s }

// QueueDepth returns the number of pending evaluations.
func (sv *Service) QueueDepth() int { return sv.q.len() }

// enqueue appends an evaluation for the trigger, coalescing duplicates.
func (sv *Service) enqueue(t Trigger, subject string, notBefore sim.Time, attempt int) {
	e := &Eval{
		Trigger:   t,
		Subject:   subject,
		Priority:  t.priority(),
		Created:   sv.s.grid.Now(),
		NotBefore: notBefore,
		Attempt:   attempt,
	}
	if sv.q.push(e) {
		sv.m.enqueued()
	} else {
		sv.m.coalesced()
	}
	sv.m.depth(sv.q.len())
}

// Submit enqueues a job for scheduling and queues its evaluation.
func (sv *Service) Submit(j *job.Job) error {
	if err := sv.s.Submit(j); err != nil {
		return err
	}
	sv.enqueue(TriggerSubmit, j.Name, 0, 0)
	return nil
}

// HandleNodeFailure routes a node failure through the scheduler (cancelling
// and re-queueing the affected jobs) and queues a failure evaluation.
func (sv *Service) HandleNodeFailure(nodeLabel string) ([]string, error) {
	requeued, err := sv.s.HandleNodeFailure(nodeLabel)
	if err != nil {
		return nil, err
	}
	sv.enqueue(TriggerFail, nodeLabel, 0, 0)
	return requeued, nil
}

// HandleNodeRecovery routes a node recovery through the scheduler and queues
// a recovery evaluation.
func (sv *Service) HandleNodeRecovery(nodeLabel string) error {
	if err := sv.s.HandleNodeRecovery(nodeLabel); err != nil {
		return err
	}
	sv.enqueue(TriggerRecover, nodeLabel, 0, 0)
	return nil
}

// HandleRevocation routes an owner revocation through the scheduler and
// queues a revocation evaluation.
func (sv *Service) HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error) {
	requeued, err := sv.s.HandleRevocation(nodeLabel, span)
	if err != nil {
		return nil, err
	}
	sv.enqueue(TriggerRevoke, nodeLabel, 0, 0)
	return requeued, nil
}

// EnqueueTick queues a periodic clock-tick evaluation — the event that keeps
// a service with no external traffic re-examining backoff-gated jobs.
func (sv *Service) EnqueueTick() {
	sv.enqueue(TriggerTick, "", 0, 0)
}

// Round is one in-flight evaluation round: the due evaluations it consumed
// plus the scheduler iteration they drive. The phases mirror the step API —
// BeginRound freezes the batch, Evaluate plans against the snapshot,
// Apply re-validates and commits, Finish advances the clock — so drivers
// (the model checker above all) can interleave environment events between
// any two phases.
type Round struct {
	sv *Service
	it *Iteration
	// evals are the evaluations this round consumed, in dequeue order.
	evals []*Eval
}

// BeginRound opens an evaluation round: it dequeues every evaluation
// eligible at the current time — stable priority order, capacity-destroying
// events first — and freezes the scheduler batch. A round may begin with an
// empty queue (a bare periodic round); only one round may be open at a time.
func (sv *Service) BeginRound() (*Round, error) {
	if sv.round != nil {
		return nil, fmt.Errorf("metasched: round already open on iteration %d", sv.round.it.rep.Iteration)
	}
	now := sv.s.grid.Now()
	var evals []*Eval
	for {
		e := sv.q.popDue(now)
		if e == nil {
			break
		}
		sv.m.consumed(now.Sub(e.Created))
		evals = append(evals, e)
	}
	sv.m.depth(sv.q.len())
	it, err := sv.s.BeginIteration()
	if err != nil {
		return nil, err
	}
	sv.round = &Round{sv: sv, it: it, evals: evals}
	sv.m.roundStarted(len(evals))
	return sv.round, nil
}

// Evals returns the evaluations the round consumed, in dequeue order.
func (r *Round) Evals() []*Eval { return r.evals }

// Iteration returns the scheduler iteration driving the round.
func (r *Round) Iteration() *Iteration { return r.it }

// Evaluate runs the planning phase against the round's snapshot: publish
// vacancy (stamped with the grid epoch), search alternatives under the
// service's worker bound, and optimize the combination. The resulting Plan
// is held pending until Apply.
func (r *Round) Evaluate() error {
	if r.sv.cfg.Workers > 0 {
		r.it.workers = r.sv.cfg.Workers
	}
	return r.it.Plan()
}

// Plan returns the round's pending plan: non-nil between Evaluate and Apply
// when the optimizer chose a combination.
func (r *Round) Plan() *Plan { return r.it.PendingPlan() }

// Apply runs the serial applier: every window of the pending plan is
// re-validated by the grid's commit, stale windows are rejected (their jobs
// postponed by the iteration), and each rejected job's evaluation re-enters
// the queue under the retry policy's deterministic backoff.
func (r *Round) Apply() error {
	if err := r.it.Apply(); err != nil {
		return err
	}
	sv := r.sv
	now := sv.s.grid.Now()
	for _, name := range r.it.StaleJobs() {
		sv.requeues[name]++
		attempt := sv.requeues[name]
		var delay sim.Duration
		if p := sv.s.cfg.Retry; p != nil {
			delay = p.backoff(name, attempt)
		}
		sv.enqueue(TriggerRequeue, name, now.Add(delay), attempt)
		sv.m.requeued(delay)
	}
	return nil
}

// Finish closes the round: the clock advances by the configured step and the
// iteration report is returned.
func (r *Round) Finish() (*IterationReport, error) {
	rep, err := r.it.Finish()
	if r.sv.round == r {
		r.sv.round = nil
	}
	return rep, err
}

// Tick runs one full service round: enqueue the periodic tick evaluation,
// consume the due evaluations, plan, apply, advance. It is the service-mode
// counterpart of RunIteration and produces the identical report.
func (sv *Service) Tick() (*IterationReport, error) {
	sv.EnqueueTick()
	r, err := sv.BeginRound()
	if err != nil {
		return nil, err
	}
	if err := r.Evaluate(); err != nil {
		return nil, err
	}
	if err := r.Apply(); err != nil {
		return nil, err
	}
	return r.Finish()
}

// CanonicalState appends the service's own state — the pending evaluation
// queue in dequeue order and the per-job requeue attempts — to b. Evaluation
// IDs are omitted: like the grid epoch they are history counters, and two
// services whose pending sets agree in order and content behave identically.
// The open round's iteration state is serialized separately by the driver
// (it is reachable via the round), exactly as for batch iterations.
func (sv *Service) CanonicalState(b *strings.Builder) {
	for _, e := range sv.q.pending {
		fmt.Fprintf(b, "eval %s subject=%q prio=%d created=%d notBefore=%d attempt=%d\n",
			e.Trigger, e.Subject, e.Priority, int64(e.Created), int64(e.NotBefore), e.Attempt)
	}
	for _, name := range sortedKeys(sv.requeues) {
		fmt.Fprintf(b, "requeues %s=%d\n", name, sv.requeues[name])
	}
}
