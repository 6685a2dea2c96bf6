package metasched

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/sim"
)

// QueuedState is the exported form of one queue entry: the job with its
// current — possibly relaxed — request, plus the postponement count and the
// submission/backoff clocks the batch selection reads.
type QueuedState struct {
	Job        *job.Job
	Postponed  int
	SubmitTick sim.Time
	NotBefore  sim.Time
}

// JobSubmitState records one entry of the first-submission ledger.
type JobSubmitState struct {
	Name string
	At   sim.Time
}

// JobRetryState records one job's persistent retry-ladder position.
type JobRetryState struct {
	Name        string
	Attempts    int
	Relaxations int
}

// JobDropState records one terminal drop with its reason.
type JobDropState struct {
	Name   string
	Reason string
}

// SchedulerState is a complete snapshot of the scheduler's mutable state —
// everything CanonicalState serializes, in the same order — as plain data.
// Configuration (algorithm, policy, horizon, retry parameters, sharding) is
// deliberately absent: a recovery rebuilds the scheduler through the same
// factory that built the original, so configuration comes from code, and the
// snapshot only carries what the session mutated. ArrivalsRNG captures the
// LocalArrivals generator mid-stream (nil when local arrivals are off) so the
// restored session draws the identical tail of owner-local tasks.
type SchedulerState struct {
	Iter        int
	SeededTo    sim.Time
	Queue       []QueuedState
	Placed      []*job.Job
	FirstSubmit []JobSubmitState
	Retry       []JobRetryState
	Dropped     []JobDropState
	Stats       RetryStats
	ArrivalsRNG *uint64
}

// cloneJob deep-copies a job so a snapshot shares no mutable state with the
// live scheduler (the retry ladder mutates Request.MaxPrice in place).
func cloneJob(j *job.Job) *job.Job {
	c := *j
	if tags := j.Request.Needs.Tags; tags != nil {
		c.Request.Needs.Tags = append([]string(nil), tags...)
	}
	return &c
}

// ExportState captures the scheduler's mutable state. The snapshot is
// self-contained: jobs are deep-copied, so later relaxations or submissions
// leave it untouched.
func (s *Scheduler) ExportState() *SchedulerState {
	st := &SchedulerState{
		Iter:     s.iter,
		SeededTo: s.seededTo,
		Stats:    s.retryStats,
	}
	for _, q := range s.queue {
		st.Queue = append(st.Queue, QueuedState{
			Job:        cloneJob(q.job),
			Postponed:  q.postponed,
			SubmitTick: q.submitTick,
			NotBefore:  q.notBefore,
		})
	}
	for _, name := range sortedKeys(s.placed) {
		st.Placed = append(st.Placed, cloneJob(s.placed[name]))
	}
	for _, name := range sortedKeys(s.firstSubmit) {
		st.FirstSubmit = append(st.FirstSubmit, JobSubmitState{Name: name, At: s.firstSubmit[name]})
	}
	for _, name := range sortedKeys(s.retry) {
		r := s.retry[name]
		st.Retry = append(st.Retry, JobRetryState{Name: name, Attempts: r.attempts, Relaxations: r.relaxations})
	}
	for _, name := range sortedKeys(s.droppedJobs) {
		st.Dropped = append(st.Dropped, JobDropState{Name: name, Reason: s.droppedJobs[name]})
	}
	if la := s.cfg.LocalArrivals; la != nil && la.RNG != nil {
		state := la.RNG.State()
		st.ArrivalsRNG = &state
	}
	return st
}

// RestoreState replaces the scheduler's mutable state with the snapshot, in
// place. The grid is not touched — restore it separately (Grid.RestoreState)
// before resuming; configuration is whatever the scheduler was built with.
// Every job is re-validated and duplicate names across the queue and placed
// set are rejected, so a corrupted snapshot fails cleanly instead of loading
// a state the conservation invariants forbid. Restore between rounds only:
// an open round holds frozen references into the state being replaced
// (Service.RestoreState refuses while one is open).
func (s *Scheduler) RestoreState(st *SchedulerState) error {
	if st == nil {
		return fmt.Errorf("metasched: nil scheduler state")
	}
	seen := make(map[string]bool, len(st.Queue)+len(st.Placed))
	queue := make([]*queued, 0, len(st.Queue))
	for _, q := range st.Queue {
		if q.Job == nil {
			return fmt.Errorf("metasched: restore: nil queued job")
		}
		if err := q.Job.Validate(); err != nil {
			return fmt.Errorf("metasched: restore: queued job: %w", err)
		}
		if seen[q.Job.Name] {
			return fmt.Errorf("metasched: restore: duplicate job %q", q.Job.Name)
		}
		seen[q.Job.Name] = true
		queue = append(queue, &queued{
			job:        cloneJob(q.Job),
			postponed:  q.Postponed,
			submitTick: q.SubmitTick,
			notBefore:  q.NotBefore,
		})
	}
	placed := make(map[string]*job.Job, len(st.Placed))
	for _, j := range st.Placed {
		if j == nil {
			return fmt.Errorf("metasched: restore: nil placed job")
		}
		if err := j.Validate(); err != nil {
			return fmt.Errorf("metasched: restore: placed job: %w", err)
		}
		if seen[j.Name] {
			return fmt.Errorf("metasched: restore: duplicate job %q", j.Name)
		}
		seen[j.Name] = true
		placed[j.Name] = cloneJob(j)
	}
	firstSubmit := make(map[string]sim.Time, len(st.FirstSubmit))
	for _, f := range st.FirstSubmit {
		firstSubmit[f.Name] = f.At
	}
	var retry map[string]*retryState
	if len(st.Retry) > 0 {
		retry = make(map[string]*retryState, len(st.Retry))
		for _, r := range st.Retry {
			retry[r.Name] = &retryState{attempts: r.Attempts, relaxations: r.Relaxations}
		}
	}
	dropped := make(map[string]string, len(st.Dropped))
	for _, d := range st.Dropped {
		if seen[d.Name] {
			return fmt.Errorf("metasched: restore: job %q both live and dropped", d.Name)
		}
		dropped[d.Name] = d.Reason
	}
	if st.ArrivalsRNG != nil {
		la := s.cfg.LocalArrivals
		if la == nil || la.RNG == nil {
			return fmt.Errorf("metasched: restore: snapshot carries an arrivals RNG but local arrivals are off")
		}
		la.RNG.SetState(*st.ArrivalsRNG)
	}
	s.iter = st.Iter
	s.seededTo = st.SeededTo
	s.queue = queue
	s.placed = placed
	s.firstSubmit = firstSubmit
	s.retry = retry
	s.droppedJobs = dropped
	s.retryStats = st.Stats
	return nil
}

// QueuedJob returns the live queue entry's job for name, or nil when no such
// job is queued. Journal replay uses it to rebind recovered plan choices to
// the scheduler's own job instances (the retry ladder mutates requests in
// place, so identity matters).
func (s *Scheduler) QueuedJob(name string) *job.Job {
	if q := s.findQueued(name); q != nil {
		return q.job
	}
	return nil
}

// PlacedJobs returns the names of the jobs currently holding reservations,
// sorted. The recovery-coherence audit compares this set against the
// journal's applied-plan ledger.
func (s *Scheduler) PlacedJobs() []string {
	return sortedKeys(s.placed)
}

// ServiceState is the service layer's own state on top of the scheduler.
// It is empty: the service keeps no state beside the open round, which a
// snapshot never holds.
//
// Deprecated: kept only so the frozen benchmark harness and the
// checkpoint's Service field compile unchanged (ROADMAP item 1).
type ServiceState struct{}

// ExportState fails when a round is open: an in-flight round holds a frozen
// batch and a pending plan that are not part of the committed state a
// checkpoint may claim. Otherwise it returns the empty service state.
func (sv *Service) ExportState() (*ServiceState, error) {
	if sv.round != nil {
		return nil, fmt.Errorf("metasched: export with open round on iteration %d", sv.round.rep.Iteration)
	}
	return &ServiceState{}, nil
}

// RestoreState fails when a round is open, for the same reason ExportState
// does; otherwise there is nothing to restore.
func (sv *Service) RestoreState(*ServiceState) error {
	if sv.round != nil {
		return fmt.Errorf("metasched: restore with open round on iteration %d", sv.round.rep.Iteration)
	}
	return nil
}
