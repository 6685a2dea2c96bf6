package metasched

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/trace"
)

// RetryPolicy governs what a job does after its reservation is cancelled by
// the environment (node failure, slot revocation). Without a policy the
// scheduler keeps its historical behaviour: cancelled jobs re-enter the queue
// immediately and retry forever.
//
// With a policy, a cancelled job re-enters the queue with its attempt count
// and an exponential backoff in sim ticks before it becomes eligible again.
// The backoff carries a deterministic jitter derived from the job name, the
// attempt number and JitterSeed — never from wall clock or iteration order —
// so two sessions with the same seed produce byte-identical schedules
// regardless of engine toggles. When the attempts of a rung are exhausted the
// job steps down the degradation ladder: its price cap C is relaxed by
// PriceRelaxFactor (which re-derives the AMP budget S = ρ·C·t·N), the
// attempt count resets, and the next rung begins. After MaxRelaxations rungs
// the job is terminally dropped with reason "retries-exhausted". A job whose
// JobDeadline (measured from first submission) has passed at cancellation
// time is dropped immediately with reason "deadline".
type RetryPolicy struct {
	// MaxAttempts is the number of re-queue attempts per degradation
	// rung; 0 or negative means unlimited (the ladder never engages).
	MaxAttempts int
	// BackoffBase is the delay before the first retry becomes eligible;
	// 0 retries at the next iteration.
	BackoffBase sim.Duration
	// BackoffFactor multiplies the delay each further attempt; values
	// below 1 are treated as 1 (constant backoff).
	BackoffFactor float64
	// BackoffMax caps the delay; 0 means uncapped.
	BackoffMax sim.Duration
	// JitterFrac spreads each delay by ±JitterFrac·delay, deterministic
	// per (job, attempt, JitterSeed). 0 disables jitter.
	JitterFrac float64
	// JitterSeed seeds the deterministic jitter stream.
	JitterSeed uint64
	// PriceRelaxFactor (> 1) multiplies the job's price cap when a rung's
	// attempts are exhausted; values <= 1 disable the ladder.
	PriceRelaxFactor float64
	// MaxRelaxations bounds the ladder depth.
	MaxRelaxations int
	// JobDeadline, when positive, terminally drops a cancelled job whose
	// age since first submission exceeds it.
	JobDeadline sim.Duration
}

// Validate checks the policy parameters.
func (p *RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 || p.MaxRelaxations < 0 {
		return fmt.Errorf("metasched: negative retry limits")
	}
	if p.BackoffBase < 0 || p.BackoffMax < 0 {
		return fmt.Errorf("metasched: negative retry backoff")
	}
	if !finite(p.BackoffFactor) || !finite(p.PriceRelaxFactor) {
		return fmt.Errorf("metasched: non-finite retry factor (backoff %v, price relax %v)", p.BackoffFactor, p.PriceRelaxFactor)
	}
	if !(p.JitterFrac >= 0 && p.JitterFrac < 1) {
		return fmt.Errorf("metasched: jitter fraction %v outside [0, 1)", p.JitterFrac)
	}
	if p.JobDeadline < 0 {
		return fmt.Errorf("metasched: negative retry deadline %v", p.JobDeadline)
	}
	return nil
}

// backoff returns the re-queue delay for the given attempt (1-based) of the
// named job: BackoffBase·BackoffFactor^(attempt-1), capped at BackoffMax,
// spread by the deterministic jitter. The delay saturates at sim.Infinity,
// so neither the conversion to ticks nor now.Add(delay) can overflow.
func (p *RetryPolicy) backoff(name string, attempt int) sim.Duration {
	d := float64(p.BackoffBase)
	factor := p.BackoffFactor
	if factor < 1 {
		factor = 1
	}
	for i := 1; i < attempt; i++ {
		d *= factor
		if p.BackoffMax > 0 && d >= float64(p.BackoffMax) {
			d = float64(p.BackoffMax)
			break
		}
	}
	if p.BackoffMax > 0 && d > float64(p.BackoffMax) {
		d = float64(p.BackoffMax)
	}
	if p.JitterFrac > 0 && d > 0 {
		h := fnv.New64a()
		h.Write([]byte(name))
		rng := sim.NewRNG(p.JitterSeed ^ h.Sum64() ^ uint64(attempt)*0x9e3779b97f4a7c15)
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	if d >= float64(sim.Infinity) {
		return sim.Duration(sim.Infinity)
	}
	return sim.Duration(d)
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// retryState is the persistent per-job record behind the retry policy; it
// survives the job's placement/cancellation cycles.
type retryState struct {
	attempts    int
	relaxations int
}

// RetryStats exposes the scheduler's cancellation bookkeeping for invariant
// checkers: every cancellation of a placed job resolves into exactly one of
// re-queue or terminal drop, so Cancelled == Requeued + DroppedExhausted +
// DroppedDeadline at all times.
type RetryStats struct {
	// Cancelled counts placed jobs whose reservations the environment
	// cancelled (node failures and slot revocations).
	Cancelled int
	// Requeued counts cancellations that re-entered the queue.
	Requeued int
	// Relaxations counts degradation-ladder steps taken.
	Relaxations int
	// DroppedExhausted and DroppedDeadline count terminal drops by cause.
	DroppedExhausted int
	DroppedDeadline  int
}

// RetryStats returns the scheduler's cancellation bookkeeping.
func (s *Scheduler) RetryStats() RetryStats { return s.retryStats }

// SubmittedCount returns the number of distinct job names ever submitted.
func (s *Scheduler) SubmittedCount() int { return len(s.firstSubmit) }

// PlacedCount returns the number of jobs currently holding reservations.
func (s *Scheduler) PlacedCount() int { return len(s.placed) }

// DroppedCount returns the number of terminally dropped jobs. Drops are
// never undone, so an unchanged count means an unchanged drop ledger.
func (s *Scheduler) DroppedCount() int { return len(s.droppedJobs) }

// DroppedJobs returns the terminally dropped jobs with their recorded
// reasons ("postponements", "retries-exhausted", "deadline").
func (s *Scheduler) DroppedJobs() map[string]string {
	out := make(map[string]string, len(s.droppedJobs))
	for name, reason := range s.droppedJobs {
		out[name] = reason
	}
	return out
}

// retryEntry returns (creating on demand) the persistent retry record.
func (s *Scheduler) retryEntry(name string) *retryState {
	if s.retry == nil {
		s.retry = make(map[string]*retryState)
	}
	st := s.retry[name]
	if st == nil {
		st = &retryState{}
		s.retry[name] = st
	}
	return st
}

// dropJob records a terminal drop with its reason.
func (s *Scheduler) dropJob(name, reason string) {
	s.droppedJobs[name] = reason
	s.cfg.Trace.Record(trace.Dropped, name, "%s", reason)
	s.metrics.dropped.Inc()
}

// requeueCancelled resolves a batch of environment-cancelled reservations:
// per distinct job, release the surviving placements (a partial window is
// worthless — tasks start synchronously), then re-queue under the retry
// policy or drop terminally. It returns the re-queued job names in
// deterministic order.
func (s *Scheduler) requeueCancelled(cancelled []gridsim.Task, cause string) []string {
	seen := map[string]bool{}
	var requeued []string
	for _, t := range cancelled {
		if seen[t.Name] {
			continue
		}
		seen[t.Name] = true
		// Release the job's placements on surviving nodes.
		s.grid.CancelJob(t.Name)
		j, known := s.placed[t.Name]
		if !known {
			// A reservation not placed by this scheduler (e.g. booked
			// directly on the grid): nothing to re-queue.
			continue
		}
		delete(s.placed, t.Name)
		s.retryStats.Cancelled++
		if s.findQueued(t.Name) != nil {
			// Already queued — a second failure of the same node label
			// (or an overlapping fault) must not duplicate the entry.
			s.retryStats.Requeued++
			requeued = append(requeued, t.Name)
			continue
		}
		if s.requeueWithPolicy(j, cause) {
			requeued = append(requeued, t.Name)
		}
	}
	sort.Strings(requeued)
	s.metrics.requeued.Add(int64(len(requeued)))
	return requeued
}

// requeueWithPolicy re-enters a cancelled job into the queue under the retry
// policy, stepping the degradation ladder or dropping terminally as the
// policy dictates. It reports whether the job was re-queued.
func (s *Scheduler) requeueWithPolicy(j *job.Job, cause string) bool {
	now := s.grid.Now()
	p := s.cfg.Retry
	if p == nil {
		s.queue = append(s.queue, &queued{job: j, submitTick: now})
		s.retryStats.Requeued++
		s.cfg.Trace.Record(trace.Postponed, j.Name, "re-queued after %s", cause)
		return true
	}
	if p.JobDeadline > 0 && now.Sub(s.firstSubmit[j.Name]) > p.JobDeadline {
		s.retryStats.DroppedDeadline++
		s.metrics.retryDropDeadline.Inc()
		s.dropJob(j.Name, "deadline")
		return false
	}
	st := s.retryEntry(j.Name)
	st.attempts++
	if p.MaxAttempts > 0 && st.attempts > p.MaxAttempts {
		if p.PriceRelaxFactor > 1 && st.relaxations < p.MaxRelaxations {
			st.relaxations++
			st.attempts = 1
			j.Request.MaxPrice *= sim.Money(p.PriceRelaxFactor)
			s.retryStats.Relaxations++
			s.metrics.retryRelaxations.Inc()
			s.cfg.Trace.Record(trace.Relaxed, j.Name,
				"rung %d: price cap -> %v, budget -> %v", st.relaxations, j.Request.MaxPrice, j.Request.Budget())
		} else {
			s.retryStats.DroppedExhausted++
			s.metrics.retryDropExhaust.Inc()
			s.dropJob(j.Name, "retries-exhausted")
			return false
		}
	}
	delay := p.backoff(j.Name, st.attempts)
	s.queue = append(s.queue, &queued{job: j, submitTick: now, notBefore: now.Add(delay)})
	s.retryStats.Requeued++
	s.metrics.retryRequeued(delay)
	s.cfg.Trace.Record(trace.Postponed, j.Name,
		"re-queued after %s (attempt %d, backoff %v)", cause, st.attempts, delay)
	return true
}

// HandleRevocation reacts to an owner reclaiming a booked interval on a node
// (the transient counterpart of HandleNodeFailure): every VO reservation
// overlapping the span is cancelled in the grid, the affected jobs release
// their surviving placements, and each re-enters the queue under the retry
// policy or is terminally dropped. It returns the re-queued job names in
// deterministic order.
func (s *Scheduler) HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error) {
	node := s.grid.Pool().ByName(nodeLabel)
	if node == nil {
		return nil, fmt.Errorf("metasched: unknown node %q", nodeLabel)
	}
	cancelled, err := s.grid.RevokeInterval(node.ID, span)
	if err != nil {
		return nil, err
	}
	if len(cancelled) > 0 {
		s.cfg.Trace.Record(trace.Revoked, "", "%s reclaimed %v: %d reservations cancelled",
			nodeLabel, span, len(cancelled))
	}
	return s.requeueCancelled(cancelled, fmt.Sprintf("%s revoked %v", nodeLabel, span)), nil
}

// HandleNodeRecovery reacts to a failed node re-joining the pool: the node
// publishes fresh vacancy from the current time on. Reservations cancelled
// by the failure are never resurrected — the affected jobs re-schedule
// through the normal iteration path.
func (s *Scheduler) HandleNodeRecovery(nodeLabel string) error {
	node := s.grid.Pool().ByName(nodeLabel)
	if node == nil {
		return fmt.Errorf("metasched: unknown node %q", nodeLabel)
	}
	if !s.grid.NodeFailed(node.ID) {
		return nil
	}
	if err := s.grid.RecoverNode(node.ID); err != nil {
		return err
	}
	s.cfg.Trace.Record(trace.Recovered, "", "%s re-joined the pool", nodeLabel)
	return nil
}
