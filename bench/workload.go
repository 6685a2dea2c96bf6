package main

import (
	"fmt"
	"path/filepath"
	"slices"

	"ecosched/internal/alloc"
	"ecosched/internal/durable"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/shard"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// localLoad is the owner-local task flow that keeps the resources
// non-dedicated: ~1 vacant fragment per 60 ticks per node.
var localLoad = gridsim.LocalLoad{MeanGap: 30, DurMin: 20, DurMax: 40}

// spec is one workload: the grid, the scheduler configuration and the
// per-round arrival mix. Everything a session does derives from a spec and
// a seed.
type spec struct {
	name, why string

	nodes   int
	horizon sim.Duration
	// step is the sim-time gap between rounds: arrivals are open-loop in
	// sim time, so jobsPerRound jobs land every step whatever was placed.
	step sim.Duration

	algo       alloc.Algorithm
	policy     metasched.Policy
	shards     int
	maxBatch   int
	altsPerJob int

	jobsPerRound int
	rounds       int
	// Job requests draw N from 1..3, etalon time from [timeMin, timeMax],
	// P from [1, 1.8] and the price cap C from base(priceAt)·U[1, 1.4].
	timeMin, timeMax int
	priceAt          float64

	// twin names the workload that differs only in its shard count and
	// must therefore produce the same schedule.
	twin string

	// churn runs the session under durable.Service with the fault mix
	// below injected before every round.
	churn           bool
	revokes, fails  int
	maxDown         int
	checkpointEvery int
}

var workloads = []spec{
	{
		name:  "wide-k1",
		why:   "few windows cut out of one flat ~100k-slot list: window subtraction on the slot substrate does nearly all the work",
		nodes: 1000, horizon: 6000, step: 150,
		algo: alloc.AMP{}, policy: metasched.MinimizeTime, shards: 1, maxBatch: 8, altsPerJob: 10,
		jobsPerRound: 4, rounds: 40, timeMin: 30, timeMax: 90, priceAt: 1.5,
		twin: "wide-k4",
	},
	{
		name:  "wide-k4",
		why:   "byte-identical inputs over 4 shards: subtraction shrinks 4x, so publication, per-shard scan and K-way merge take the larger share",
		nodes: 1000, horizon: 6000, step: 150,
		algo: alloc.AMP{}, policy: metasched.MinimizeTime, shards: 4, maxBatch: 8, altsPerJob: 10,
		jobsPerRound: 4, rounds: 40, timeMin: 30, timeMax: 90, priceAt: 1.5,
		twin: "wide-k1",
	},
	{
		name:  "dense-alts",
		why:   "many windows over a ~5k-slot list where mutation is free: scan, fold and DP dominate; covers ALP and the minimize-cost criterion",
		nodes: 100, horizon: 3000, step: 150,
		algo: alloc.ALP{}, policy: metasched.MinimizeCost, shards: 1, maxBatch: 16, altsPerJob: 32,
		jobsPerRound: 16, rounds: 200, timeMin: 10, timeMax: 40, priceAt: 2.5,
	},
	{
		name:  "churn-durable",
		why:   "the wide-k4 grid written (revocations, failures, recoveries) beside being read, under journal + checkpoints + recovery",
		nodes: 1000, horizon: 6000, step: 25,
		algo: alloc.AMP{}, policy: metasched.MinimizeTime, shards: 4, maxBatch: 8, altsPerJob: 10,
		jobsPerRound: 4, rounds: 64, timeMin: 30, timeMax: 90, priceAt: 1.5,
		churn: true, revokes: 16, fails: 4, maxDown: 20, checkpointEvery: 8,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to the tier-1 test shape; the code path is the
// same, only the sizes differ.
func (s spec) smoke() spec {
	s.nodes, s.rounds = 20, 3
	if s.churn {
		s.revokes, s.fails, s.maxDown, s.checkpointEvery = 4, 1, 3, 2
	}
	return s
}

// retryPolicy is the churn workload's cancellation policy.
var retryPolicy = metasched.RetryPolicy{MaxAttempts: 3, BackoffBase: 150, BackoffFactor: 2, BackoffMax: 1200}

// driver is the surface shared by metasched.Service and durable.Service.
type driver interface {
	Submit(*job.Job) error
	Tick() (*metasched.IterationReport, error)
	HandleNodeFailure(string) ([]string, error)
	HandleNodeRecovery(string) error
	HandleRevocation(string, sim.Interval) ([]string, error)
}

// faultEvent is one generated environment event.
type faultEvent struct {
	kind string // "revoke", "fail", "recover"
	node string
	span sim.Interval
}

func (e faultEvent) apply(d driver) error {
	var err error
	switch e.kind {
	case "revoke":
		_, err = d.HandleRevocation(e.node, e.span)
	case "fail":
		_, err = d.HandleNodeFailure(e.node)
	default:
		err = d.HandleNodeRecovery(e.node)
	}
	return err
}

// session is one seeded run of a workload: the service under test plus the
// input generator feeding it. The scheduler only ever sees generated jobs
// and fault events.
type session struct {
	spec  spec
	part  shard.Partition
	sched *metasched.Scheduler
	svc   *metasched.Service
	ds    *durable.Service // nil unless journaled
	drv   driver

	jobRNG, faultRNG *sim.RNG
	pricing          resource.ExponentialPricing
	jobs             map[string]*job.Job
	round            int
	serial           int
	// down lists failed nodes, oldest first; aimed remembers the jobs a
	// targeted failure already cancelled, so no job is hunted into its
	// retry cap.
	down  []string
	aimed map[string]bool
	prev  *metasched.IterationReport

	submitted, rejected int
}

// newService builds the pristine service a seed describes: pool, empty grid,
// scheduler, service. It is also durable.Recover's factory.
func newService(sp spec, seed uint64) (*metasched.Service, *sim.RNG, error) {
	root := sim.NewRNG(seed)
	poolRNG, arrivalRNG, inputRNG := root.Split(), root.Split(), root.Split()
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, sp.nodes)
	for i := range nodes {
		perf := poolRNG.FloatBetween(1, 3)
		nodes[i] = &resource.Node{Name: fmt.Sprintf("n%d", i+1), Performance: perf, Price: pricing.Sample(poolRNG, perf)}
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		return nil, nil, err
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		return nil, nil, err
	}
	cfg := metasched.Config{
		Algorithm:        sp.algo,
		Policy:           sp.policy,
		Horizon:          sp.horizon,
		Step:             sp.step,
		MaxBatch:         sp.maxBatch,
		MaxPostponements: 3,
		Parallelism:      1,
		Shards:           sp.shards,
		// The first BeginRound populates [0, horizon); later rounds top up
		// the newly visible step, so the vacant list stays full.
		LocalArrivals: &metasched.LocalArrivals{Load: localLoad, RNG: arrivalRNG},
	}
	cfg.Search.MaxAlternativesPerJob = sp.altsPerJob
	if sp.churn {
		rp := retryPolicy
		cfg.Retry = &rp
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		return nil, nil, err
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	return svc, inputRNG, err
}

// newSession builds a session; dir, when non-empty, puts the service under
// durable.Service journaling into it (checkpointEvery 0 leaves checkpoints to
// explicit calls).
func newSession(sp spec, seed uint64, dir string, checkpointEvery int) (*session, error) {
	svc, inputRNG, err := newService(sp, seed)
	if err != nil {
		return nil, err
	}
	s := &session{
		spec: sp, part: shard.New(sp.shards), sched: svc.Scheduler(), svc: svc, drv: svc,
		jobRNG: inputRNG.Split(), faultRNG: inputRNG.Split(), pricing: resource.PaperPricing(),
		jobs: map[string]*job.Job{}, aimed: map[string]bool{},
	}
	if dir != "" {
		s.ds, err = durable.New(svc, durableOptions(dir, checkpointEvery))
		if err != nil {
			return nil, err
		}
		s.drv = s.ds
	}
	return s, nil
}

func durableOptions(dir string, checkpointEvery int) durable.Options {
	return durable.Options{
		JournalPath:     filepath.Join(dir, "bench.journal"),
		CheckpointPath:  filepath.Join(dir, "bench.ckpt"),
		CheckpointEvery: checkpointEvery,
	}
}

// nextJobs generates the round's arrivals. Priorities are unique and rise
// with submission order, so the batch order is recoverable from names alone.
func (s *session) nextJobs() []*job.Job {
	s.round++
	out := make([]*job.Job, s.spec.jobsPerRound)
	for i := range out {
		s.serial++
		j := &job.Job{
			Name:     fmt.Sprintf("j%d-%d", s.round, i+1),
			Priority: s.serial,
			Request: job.ResourceRequest{
				Nodes:          s.jobRNG.IntBetween(1, 3),
				Time:           sim.Duration(s.jobRNG.IntBetween(s.spec.timeMin, s.spec.timeMax)),
				MinPerformance: s.jobRNG.FloatBetween(1, 1.8),
				MaxPrice:       s.pricing.BasePrice(s.spec.priceAt) * sim.Money(s.jobRNG.FloatBetween(1.0, 1.4)),
			},
		}
		s.jobs[j.Name] = j
		out[i] = j
	}
	return out
}

// submit feeds one job to the service; a rejected submit is a failed
// operation, not an error of the harness.
func (s *session) submit(j *job.Job) {
	s.submitted++
	if err := s.drv.Submit(j); err != nil {
		s.rejected++
	}
}

// liveNode draws a node that is not currently failed.
func (s *session) liveNode() string {
	nodes := s.sched.Grid().Pool().Nodes()
	for {
		n := nodes[s.faultRNG.IntN(len(nodes))].Label()
		if !slices.Contains(s.down, n) {
			return n
		}
	}
}

// nextFaults generates the events injected before the coming round: random
// revocations, node failures — half of them aimed at nodes hosting a
// placement of the previous round, so cancellations and requeues actually
// occur — and the recovery of the oldest failures beyond maxDown.
func (s *session) nextFaults() []faultEvent {
	if !s.spec.churn {
		return nil
	}
	now := s.sched.Grid().Now()
	var evs []faultEvent
	for i := 0; i < s.spec.revokes; i++ {
		start := now.Add(sim.Duration(s.faultRNG.IntN(600)))
		evs = append(evs, faultEvent{kind: "revoke", node: s.liveNode(),
			span: sim.Interval{Start: start, End: start.Add(sim.Duration(s.faultRNG.IntBetween(30, 120)))}})
	}
	// Aimed failures take the host of one still-running placement per
	// not-yet-targeted job of the previous round, in placement order.
	aimedLeft := (s.spec.fails + 1) / 2
	if s.prev != nil {
		for _, p := range s.prev.Placed {
			if aimedLeft == 0 {
				break
			}
			host := runningHost(p.Window.Window, now)
			if host == "" || s.aimed[p.Job.Name] || slices.Contains(s.down, host) {
				continue
			}
			aimedLeft--
			s.aimed[p.Job.Name] = true
			s.down = append(s.down, host)
			evs = append(evs, faultEvent{kind: "fail", node: host})
		}
	}
	for i := s.spec.fails/2 + aimedLeft; i > 0; i-- {
		n := s.liveNode()
		s.down = append(s.down, n)
		evs = append(evs, faultEvent{kind: "fail", node: n})
	}
	for len(s.down) > s.spec.maxDown {
		evs = append(evs, faultEvent{kind: "recover", node: s.down[0]})
		s.down = s.down[1:]
	}
	return evs
}

// runningHost returns the node of the window's first placement still
// executing at now, or "" when the whole window has finished.
func runningHost(w *slot.Window, now sim.Time) string {
	for _, p := range w.Placements {
		if p.Used.End > now {
			return p.Source.Node.Label()
		}
	}
	return ""
}

// failed counts the session's failed operations: rejected submits plus
// terminally dropped jobs.
func (s *session) failed() int { return s.rejected + len(s.sched.DroppedJobs()) }
