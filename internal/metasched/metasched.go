// Package metasched implements the VO-level metascheduler of the paper's
// hierarchical model (Section 1–2): it holds the global job queue, runs the
// two-phase scheduling scheme iteratively against periodically updated local
// schedules, commits chosen windows as reservations, and postpones jobs that
// could not be co-allocated to the next iteration.
package metasched

import (
	"fmt"
	"sort"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/shard"
	"ecosched/internal/sim"
	"ecosched/internal/trace"
)

// Policy selects the batch optimization criterion applied each iteration.
type Policy int

const (
	// MinimizeTime picks the combination minimizing total execution time
	// under the VO budget B* (Eq. 3).
	MinimizeTime Policy = iota
	// MinimizeCost picks the combination minimizing total cost under the
	// occupancy quota T* (Eq. 2).
	MinimizeCost
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinimizeTime:
		return "minimize-time"
	case MinimizeCost:
		return "minimize-cost"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes the metascheduler.
type Config struct {
	// Algorithm is the single-window search (alloc.ALP{} or alloc.AMP{}).
	Algorithm alloc.Algorithm
	// Policy is the per-iteration batch criterion.
	Policy Policy
	// Horizon is how far past the current time local schedules are
	// published each iteration.
	Horizon sim.Duration
	// Step is how far the clock advances between iterations.
	Step sim.Duration
	// MaxBatch bounds the number of queued jobs scheduled per iteration;
	// 0 means all.
	MaxBatch int
	// MaxPostponements drops a job after this many failed iterations;
	// 0 means never drop.
	MaxPostponements int
	// Search tunes the alternative search.
	Search alloc.SearchOptions
	// Parallelism is ignored: the search runs on the caller's goroutine.
	//
	// Deprecated: leave unset; kept only so the frozen benchmark harness
	// compiles unchanged (ROADMAP 2(c)).
	Parallelism int
	// Shards partitions the grid's nodes into this many federated domains
	// (internal/shard): each shard owns the live vacant store of its node
	// set and publishes it as one view. The search is the same loop for
	// every value — it scans one view directly and merges the candidate
	// streams of several in canonical order — so schedules are byte-
	// identical for every value (the sharding differential pins this).
	// 0 or 1 is the single-domain, one-view case.
	Shards int
	// Trace, when non-nil, records the session's scheduling decisions
	// (searches, plan choices, commits, postponements).
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the session's observability counters:
	// per-iteration phase work, job outcomes, optimizer engine selection,
	// plus the alloc-, dp-, and gridsim-level instruments, all resolved in
	// New. Instrumentation never changes a scheduling decision — sessions
	// with metrics on and off produce byte-identical transcripts — and nil
	// disables it at zero cost.
	Metrics *metrics.Registry
	// LocalArrivals, when non-nil, keeps the resources non-dedicated
	// across iterations: before each publication, fresh owner-local tasks
	// are booked into the part of the horizon that became newly visible.
	LocalArrivals *LocalArrivals
	// Retry, when non-nil, governs what a cancelled job does after a node
	// failure or slot revocation: bounded attempts with deterministic
	// exponential backoff, a price-cap degradation ladder, and terminal
	// drops with recorded reasons. Nil keeps the historical immediate
	// re-queue. The policy only engages on cancellations, so a session
	// that suffers none is byte-identical with and without it.
	Retry *RetryPolicy
}

// LocalArrivals configures the owner-local task stream injected as the
// scheduling horizon slides forward.
type LocalArrivals struct {
	// Load is the arrival process (mean gap, duration range).
	Load gridsim.LocalLoad
	// RNG drives the arrivals; required.
	RNG *sim.RNG
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Algorithm == nil {
		return fmt.Errorf("metasched: nil algorithm")
	}
	if c.Policy != MinimizeTime && c.Policy != MinimizeCost {
		return fmt.Errorf("metasched: unknown policy %d", int(c.Policy))
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("metasched: non-positive horizon %v", c.Horizon)
	}
	if c.Step <= 0 {
		return fmt.Errorf("metasched: non-positive step %v", c.Step)
	}
	if c.MaxBatch < 0 || c.MaxPostponements < 0 {
		return fmt.Errorf("metasched: negative limits in config")
	}
	if c.Shards < 0 {
		return fmt.Errorf("metasched: negative shard count %d", c.Shards)
	}
	if c.LocalArrivals != nil {
		if err := c.LocalArrivals.Load.Validate(); err != nil {
			return err
		}
		if c.LocalArrivals.RNG == nil {
			return fmt.Errorf("metasched: local arrivals need an RNG")
		}
	}
	if c.Retry != nil {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// queued tracks a job awaiting scheduling.
type queued struct {
	job        *job.Job
	postponed  int
	submitTick sim.Time
	// notBefore holds the job out of iteration batches until the clock
	// reaches it — the retry policy's backoff. Zero means eligible now.
	notBefore sim.Time
}

// Scheduled records a successfully placed job.
type Scheduled struct {
	Job    *job.Job
	Window *dp.Choice
	// Iteration is the 1-based iteration index that placed the job.
	Iteration int
	// WaitTime is the delay from submission to window start.
	WaitTime sim.Duration
}

// IterationReport summarizes one scheduling iteration.
type IterationReport struct {
	Iteration int
	Now       sim.Time
	// BatchSize is the number of jobs attempted this iteration.
	BatchSize int
	// Placed lists the jobs committed this iteration.
	Placed []Scheduled
	// Postponed lists names of jobs pushed to the next iteration.
	Postponed []string
	// Dropped lists names of jobs abandoned (postponement cap).
	Dropped []string
	// Alternatives is the total number of windows found for the batch.
	Alternatives int
	// PlanTime and PlanCost are the chosen combination's criteria.
	PlanTime sim.Duration
	PlanCost sim.Money
}

// Scheduler is the metascheduler instance bound to a grid.
type Scheduler struct {
	cfg   Config
	grid  *gridsim.Grid
	queue []*queued
	iter  int
	// placed remembers committed jobs by name so node-failure handling
	// can re-queue them.
	placed map[string]*job.Job
	// seededTo marks how far local arrivals have been injected.
	seededTo sim.Time
	// metrics holds the pre-resolved instruments, nil ones when disabled.
	metrics schedMetrics
	// firstSubmit records each job's first submission tick, the anchor of
	// the retry policy's per-job deadline and of the audit's conservation
	// check (submitted = queued + placed + dropped).
	firstSubmit map[string]sim.Time
	// retry holds the persistent per-job attempt/relaxation record.
	retry map[string]*retryState
	// droppedJobs records terminal drops with their reasons.
	droppedJobs map[string]string
	// retryStats is the cancellation bookkeeping exposed to auditors.
	retryStats RetryStats
	// part is the node-to-shard assignment (K=1 when unsharded).
	part shard.Partition
	// shardMetrics instruments the federated search; the disabled holder
	// when metrics are off or the session is unsharded.
	shardMetrics *shard.Metrics
}

// New creates a scheduler over the grid.
func New(cfg Config, grid *gridsim.Grid) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if grid == nil {
		return nil, fmt.Errorf("metasched: nil grid")
	}
	s := &Scheduler{
		cfg:         cfg,
		grid:        grid,
		placed:      make(map[string]*job.Job),
		firstSubmit: make(map[string]sim.Time),
		droppedJobs: make(map[string]string),
	}
	s.part = shard.New(cfg.Shards)
	if s.part.K() > 1 {
		if err := grid.SetSharding(s.part.K(), s.part.Of); err != nil {
			return nil, err
		}
	}
	s.metrics = newSchedMetrics(cfg.Metrics)
	s.shardMetrics = shard.NewMetrics(nil, 0)
	if cfg.Metrics != nil {
		if s.cfg.Search.Metrics == nil {
			s.cfg.Search.Metrics = alloc.NewSearchMetrics(cfg.Metrics, cfg.Algorithm.Name())
		}
		grid.SetMetrics(gridsim.NewMetrics(cfg.Metrics))
		if s.part.K() > 1 {
			s.shardMetrics = shard.NewMetrics(cfg.Metrics, s.part.K())
		}
	}
	return s, nil
}

// Submit enqueues a job for scheduling. Names must be unique among live
// jobs: re-submitting a queued name is rejected, and so is a name that is
// already placed — accepting it would leave two jobs sharing one s.placed
// entry, making failure handling and CancelJob release the wrong
// reservations.
func (s *Scheduler) Submit(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	for _, q := range s.queue {
		if q.job.Name == j.Name {
			return fmt.Errorf("metasched: job %q already queued", j.Name)
		}
	}
	if _, ok := s.placed[j.Name]; ok {
		return fmt.Errorf("metasched: job %q already placed", j.Name)
	}
	if reason, ok := s.droppedJobs[j.Name]; ok {
		// A terminal drop is terminal for the name too: re-admitting it
		// would leave the job counted both queued and dropped, breaking the
		// conservation ledger (submitted = queued + placed + dropped) the
		// auditor checks. FuzzEventOrder found exactly this interleaving.
		return fmt.Errorf("metasched: job %q was terminally dropped (%s)", j.Name, reason)
	}
	s.queue = append(s.queue, &queued{job: j, submitTick: s.grid.Now()})
	if _, ok := s.firstSubmit[j.Name]; !ok {
		s.firstSubmit[j.Name] = s.grid.Now()
	}
	return nil
}

// QueueLength returns the number of jobs awaiting scheduling.
func (s *Scheduler) QueueLength() int { return len(s.queue) }

// Grid returns the scheduler's grid.
func (s *Scheduler) Grid() *gridsim.Grid { return s.grid }

// batchForIteration picks up to MaxBatch queued jobs by priority. Jobs held
// back by a retry backoff (notBefore in the future) are not eligible — they
// sit out the iteration without it counting as a postponement.
func (s *Scheduler) batchForIteration() []*queued {
	now := s.grid.Now()
	picked := make([]*queued, 0, len(s.queue))
	for _, q := range s.queue {
		if q.notBefore > now {
			continue
		}
		picked = append(picked, q)
	}
	// Stable priority order; ties keep submission order.
	sort.SliceStable(picked, func(i, k int) bool {
		return picked[i].job.Priority < picked[k].job.Priority
	})
	if s.cfg.MaxBatch > 0 && len(picked) > s.cfg.MaxBatch {
		picked = picked[:s.cfg.MaxBatch]
	}
	return picked
}

// findQueued returns the queue entry for name, or nil when no such job is
// queued. Callers placing a job must treat nil as an internal invariant
// violation: a silently fabricated entry would measure WaitTime from tick 0.
func (s *Scheduler) findQueued(name string) *queued {
	for _, q := range s.queue {
		if q.job.Name == name {
			return q
		}
	}
	return nil
}

// optimize runs the second phase of the scheme on the covered sub-batch:
// build the sparse Pareto frontier once, derive T* and B* from it, and solve
// the configured policy on it. (The dense tables the frontier replaced are
// the dp package's reference, pinned there by TestFrontierMatchesDense*.)
func (s *Scheduler) optimize(batch *job.Batch, alts dp.Alternatives) (*dp.Plan, error) {
	fr, err := dp.NewFrontier(batch, alts)
	if err != nil {
		return nil, err
	}
	limits, err := fr.Limits()
	if err != nil {
		return nil, err
	}
	s.metrics.frontierBuilt(fr)
	if s.cfg.Policy == MinimizeCost {
		return fr.MinimizeCost(limits.Quota)
	}
	return fr.MinimizeTime(limits.Budget)
}

// HandleNodeFailure reacts to a node failure (the environment dynamics the
// paper's Section 7 motivates): the node is marked failed in the grid, all
// reservations it hosted are cancelled, and — because a parallel job's tasks
// start synchronously — every affected job's surviving placements are
// released too. The affected jobs re-enter the queue under the retry policy
// (immediately, when none is configured) and are re-scheduled on the
// remaining nodes at a later iteration. It returns the re-queued job names
// in deterministic order.
//
// The handler is idempotent: failing the same node label twice, or failing
// overlapping node sets, never re-queues a job that is already back in the
// queue (jobs are deduplicated by name).
func (s *Scheduler) HandleNodeFailure(nodeLabel string) ([]string, error) {
	node := s.grid.Pool().ByName(nodeLabel)
	if node == nil {
		return nil, fmt.Errorf("metasched: unknown node %q", nodeLabel)
	}
	cancelled, err := s.grid.FailNode(node.ID, s.grid.Now())
	if err != nil {
		return nil, err
	}
	return s.requeueCancelled(cancelled, fmt.Sprintf("%s failed", nodeLabel)), nil
}
