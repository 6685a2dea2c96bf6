package metasched

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/sim"
)

// ServiceConfig parameterizes the continuous-service wrapper. It has no
// fields: the round runs on one goroutine, so there is nothing to tune.
//
// Deprecated: pass ServiceConfig{}; kept only so the frozen benchmark
// harness compiles unchanged (ROADMAP 2(c)).
type ServiceConfig struct{}

// Service wraps a Scheduler as a long-running, event-driven metascheduler
// and is the only way to run scheduling rounds: events (job submission,
// node failure and recovery, interval revocation) go through its handlers
// between rounds; a round plans the batch of queued jobs against a
// copy-on-write vacancy snapshot stamped with the grid's mutation epoch; and
// a serial applier re-validates the plan window by window, postponing the
// job of any window that went stale like any other unplaced job. Batch
// scheduling is a service that only ever sees ticks.
//
// The service is deterministic by construction: everything runs on the
// caller's goroutine and every round reads the full current state. With a
// fixed seed and event order, every session transcript is therefore
// reproducible byte for byte.
type Service struct {
	s *Scheduler
	// round is the open round; nil between rounds.
	round *Round
}

// NewService wraps the scheduler. The config is ignored.
func NewService(s *Scheduler, _ ServiceConfig) (*Service, error) {
	if s == nil {
		return nil, fmt.Errorf("metasched: nil scheduler")
	}
	return &Service{s: s}, nil
}

// Scheduler returns the wrapped scheduler.
func (sv *Service) Scheduler() *Scheduler { return sv.s }

// QueueDepth returns 0: the service keeps no queue of its own beside the
// scheduler's job queue (Scheduler.QueueLength).
//
// Deprecated: kept only so the frozen benchmark harness compiles unchanged
// (ROADMAP item 1).
func (sv *Service) QueueDepth() int { return 0 }

// Submit enqueues a job for scheduling.
func (sv *Service) Submit(j *job.Job) error { return sv.s.Submit(j) }

// HandleNodeFailure routes a node failure through the scheduler, cancelling
// and re-queueing the affected jobs.
func (sv *Service) HandleNodeFailure(nodeLabel string) ([]string, error) {
	return sv.s.HandleNodeFailure(nodeLabel)
}

// HandleNodeRecovery routes a node recovery through the scheduler.
func (sv *Service) HandleNodeRecovery(nodeLabel string) error {
	return sv.s.HandleNodeRecovery(nodeLabel)
}

// HandleRevocation routes an owner revocation through the scheduler.
func (sv *Service) HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error) {
	return sv.s.HandleRevocation(nodeLabel, span)
}

// Tick runs one full round: BeginRound → Evaluate → Apply → Finish with
// nothing in between.
func (sv *Service) Tick() (*IterationReport, error) {
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
