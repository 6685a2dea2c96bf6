package metasched

import (
	"fmt"
	"strings"

	"ecosched/internal/job"
	"ecosched/internal/sim"
)

// ServiceConfig parameterizes the continuous-service wrapper. It has no
// fields: the round runs on one goroutine, so there is nothing to tune.
//
// Deprecated: pass ServiceConfig{}; kept only so the frozen benchmark
// harness compiles unchanged (ROADMAP 2(c)).
type ServiceConfig struct{}

// Service wraps a Scheduler as a long-running, event-driven metascheduler —
// the eval/plan/apply architecture and the only way to run scheduling
// rounds: events (job submission, node failure and recovery, interval
// revocation, clock ticks) enqueue evaluations; a round consumes the due
// evaluations and plans against a copy-on-write vacancy snapshot stamped
// with the grid's mutation epoch; and a serial applier re-validates the plan
// window by window, rejecting stale windows into a requeue-with-backoff path
// that reuses the retry policy's deterministic backoff. Batch scheduling is
// a service that only ever sees ticks.
//
// The service is deterministic by construction: everything runs on the
// caller's goroutine, and the evaluation queue is consumed at the round
// boundary without ever influencing a scheduling decision (planning always
// reads the full current state). With a fixed seed and event order, every
// session transcript is therefore reproducible byte for byte.
type Service struct {
	s *Scheduler
	q evalQueue
	m *serviceMetrics
	// round is the open round; nil between rounds.
	round *Round
	// requeues counts per-job stale-rejection requeues, the attempt number
	// fed to the retry policy's backoff.
	requeues map[string]int
}

// NewService wraps the scheduler. The config is ignored.
func NewService(s *Scheduler, _ ServiceConfig) (*Service, error) {
	if s == nil {
		return nil, fmt.Errorf("metasched: nil scheduler")
	}
	return &Service{
		s:        s,
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

// Tick runs one full round: enqueue the periodic tick evaluation, then
// BeginRound → Evaluate → Apply → Finish with nothing in between.
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
// The open round's state is serialized separately (Round.CanonicalState).
func (sv *Service) CanonicalState(b *strings.Builder) {
	for _, e := range sv.q.pending {
		fmt.Fprintf(b, "eval %s subject=%q prio=%d created=%d notBefore=%d attempt=%d\n",
			e.Trigger, e.Subject, e.Priority, int64(e.Created), int64(e.NotBefore), e.Attempt)
	}
	for _, name := range sortedKeys(sv.requeues) {
		fmt.Fprintf(b, "requeues %s=%d\n", name, sv.requeues[name])
	}
}
