package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/metasched"
)

// samples collects the named per-round observations of a traced pass.
type samples map[string][]float64

func (s samples) add(name string, v float64) {
	if s != nil {
		s[name] = append(s[name], v)
	}
}

// repStats is the outcome of one repetition: wall-clock observations plus
// the deterministic ledger every repetition of a seed must reproduce.
type repStats struct {
	setupS float64
	// wallS is the measured phase: the sum of the round times.
	wallS   float64
	roundMs []float64
	// ckptMs is the wall time of the rounds that wrote a checkpoint,
	// checkpoint included; those rounds are in roundMs too.
	ckptMs  []float64
	allocMB float64

	placed             int
	waits              []float64
	alts, batch        int
	planTime, planCost float64
	planJobs           int
	submitted, failed  int
	journalBytes       int64

	recoverS float64
	recovery *durable.RecoveryReport

	retry metasched.RetryStats
	hash  uint64
	// transcript[r] digests every placement up to and including round r.
	transcript []uint64

	heapSysMB, gcCycles, gcPauseMs float64
}

// ledger renders the deterministic part of a repetition; two repetitions of
// one seed must render identically.
func (r *repStats) ledger() string {
	return fmt.Sprintf("placed=%d waits=%v/%v alts=%d batch=%d planT=%v planC=%v planJobs=%d submitted=%d failed=%d journal=%d hash=%x transcript=%x",
		r.placed, percentile(r.waits, 0.5), percentile(r.waits, 0.95), r.alts, r.batch, r.planTime, r.planCost,
		r.planJobs, r.submitted, r.failed, r.journalBytes, r.hash, r.transcript[len(r.transcript)-1])
}

func (r *repStats) observe(rep *metasched.IterationReport, digest hash.Hash64) {
	r.placed += len(rep.Placed)
	r.alts += rep.Alternatives
	r.batch += rep.BatchSize
	// The harness never interleaves events inside a round, so no planned
	// window goes stale and a plan's jobs are exactly the round's placements.
	if len(rep.Placed) > 0 {
		r.planTime += float64(rep.PlanTime)
		r.planCost += float64(rep.PlanCost)
		r.planJobs += len(rep.Placed)
	}
	for _, p := range rep.Placed {
		r.waits = append(r.waits, float64(p.WaitTime))
		fmt.Fprintf(digest, "%d %s %v\n", rep.Iteration, p.Job.Name, p.Window.Window)
	}
	r.transcript = append(r.transcript, digest.Sum64())
}

// pass describes how one repetition is driven.
type pass struct {
	sp   spec
	seed uint64
	// dir holds the journal and checkpoint of a churn session.
	dir string
	// tr and lay are nil with tracing off.
	tr  *tracer
	lay samples
	// stepAPI drives BeginRound → Evaluate → Apply → Finish and replays the
	// layers; otherwise the round is one Tick.
	stepAPI bool
	// bare keeps a churn session off durable.Service.
	bare bool
	// explicitCkpt turns the checkpoint cadence into timed Checkpoint calls
	// made by the harness, so the trace sees them as spans of their own.
	explicitCkpt bool
	// corrupt, when set, is called after the warm-up round (round 0) and
	// after every measured round; the smoke test uses it to damage the
	// session and prove the gates fire.
	corrupt func(s *session, round int)
}

// running is a pass in progress: open, step once per round, close.
type running struct {
	p      *pass
	s      *session
	st     *repStats
	digest hash.Hash64
	rp     *replayer
	before runtime.MemStats
}

func (p *pass) journaled() bool { return p.sp.churn && !p.bare }

// open builds the session and plays the discarded warm-up round, which
// populates the horizon and builds the live store: all of it is set-up.
func (p *pass) open() (*running, error) {
	dir, every := "", p.sp.checkpointEvery
	if p.journaled() {
		dir = p.dir
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if p.explicitCkpt {
			every = 0
		}
	}
	runtime.GC()
	start := time.Now()
	s, err := newSession(p.sp, p.seed, dir, every)
	if err != nil {
		return nil, err
	}
	r := &running{p: p, s: s, st: &repStats{}, digest: fnv.New64a()}
	warm := &pass{sp: p.sp}
	if _, err := warm.round(s, &repStats{}, fnv.New64a(), nil); err != nil {
		r.discard()
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	r.st.setupS = time.Since(start).Seconds()
	if p.corrupt != nil {
		p.corrupt(s, 0)
	}
	if p.stepAPI {
		r.rp = &replayer{s: s, tr: p.tr, lay: p.lay}
	}
	runtime.ReadMemStats(&r.before)
	return r, nil
}

// discard releases the journal and its directory.
func (r *running) discard() {
	if r.s.ds != nil {
		r.s.ds.Close()
		os.RemoveAll(r.p.dir)
	}
}

// step plays the next measured round, and the cadence's checkpoint when the
// harness makes it itself.
func (r *running) step() error {
	p, s, st := r.p, r.s, r.st
	ms, err := p.round(s, st, r.digest, r.rp)
	if err != nil {
		return fmt.Errorf("round %d: %w", len(st.roundMs)+1, err)
	}
	st.roundMs = append(st.roundMs, ms)
	if every := p.sp.checkpointEvery; p.journaled() && every > 0 && s.round%every == 0 {
		if p.explicitCkpt {
			ckpt, err := p.checkpoint(s)
			if err != nil {
				return err
			}
			ms += ckpt
		}
		st.ckptMs = append(st.ckptMs, ms)
	}
	if p.corrupt != nil {
		p.corrupt(s, len(st.roundMs))
	}
	return nil
}

// close finishes the repetition: memory counters, the audit, and for a
// journaled session close, recovery and the recovery gates. It returns the
// stats and every gate violation found.
func (r *running) close() (*repStats, []string, error) {
	defer r.discard()
	p, s, st := r.p, r.s, r.st
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	st.wallS = sum(st.roundMs) / 1e3
	st.allocMB = float64(after.TotalAlloc-r.before.TotalAlloc) / 1e6 / float64(len(st.roundMs))
	st.heapSysMB = float64(after.HeapSys) / 1e6
	st.gcCycles = float64(after.NumGC - r.before.NumGC)
	st.gcPauseMs = float64(after.PauseTotalNs-r.before.PauseTotalNs) / 1e6

	var violations []string
	if r.rp != nil {
		violations = r.rp.violations
	}
	st.submitted, st.failed = s.submitted, s.failed()
	st.retry = s.sched.RetryStats()
	st.hash = durable.StateHash(s.svc)
	if err := fault.NewAudit(s.sched).Check(); err != nil {
		violations = append(violations, "audit: "+err.Error())
	}
	if p.journaled() {
		v, err := p.recover(s, st)
		if err != nil {
			return nil, nil, err
		}
		violations = append(violations, v...)
	}
	return st, violations, nil
}

// run plays one repetition and returns its stats and every gate violation it
// found. An error means the harness itself could not proceed.
func (p *pass) run() (*repStats, []string, error) {
	r, err := p.open()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < p.sp.rounds; i++ {
		if err := r.step(); err != nil {
			r.discard()
			return nil, nil, err
		}
	}
	return r.close()
}

// round plays one round — submits, fault handlers, then the round itself —
// and returns its wall time in milliseconds, from the first Submit to the
// round returning. Inputs are generated before the clock starts.
func (p *pass) round(s *session, st *repStats, digest hash.Hash64, rp *replayer) (float64, error) {
	evs := s.nextFaults()
	jobs := s.nextJobs()
	tr := p.tr
	if tr != nil {
		tr.round = s.round
	}
	root := tr.begin("round")
	start := time.Now()
	for _, j := range jobs {
		id := tr.begin("metasched.submit")
		s.submit(j)
		p.lay.add("metasched.submit_us", tr.end(id)*1e3)
	}
	var handlerMs float64
	for _, e := range evs {
		id := tr.begin("metasched.fault_handler")
		if err := e.apply(s.drv); err != nil {
			return 0, fmt.Errorf("%s %s: %w", e.kind, e.node, err)
		}
		handlerMs += tr.end(id)
	}
	if len(evs) > 0 {
		p.lay.add("metasched.fault_handler_ms", handlerMs)
	}
	p.lay.add("metasched.eval_queue_depth", float64(s.svc.QueueDepth()))

	var rep *metasched.IterationReport
	var err error
	if rp != nil {
		rep, err = rp.stepRound()
	} else {
		id := tr.begin("service.tick")
		rep, err = s.drv.Tick()
		tr.end(id)
	}
	if err != nil {
		return 0, err
	}
	ms := float64(time.Since(start)) / 1e6
	tr.end(root)
	s.prev = rep
	st.observe(rep, digest)
	if rp != nil {
		if err := rp.replay(rep); err != nil {
			return 0, err
		}
	}
	return ms, nil
}

// recover closes the journaled session, rebuilds it with durable.Recover and
// checks the recovered state: hash-exact, audited, and coherent with the
// journal's applied-plan ledger. Recovery time excludes the factory's own.
func (p *pass) recover(s *session, st *repStats) ([]string, error) {
	var violations []string
	if err := s.ds.Close(); err != nil {
		return nil, err
	}
	opts := durableOptions(p.dir, 0)
	info, err := os.Stat(opts.JournalPath)
	if err != nil {
		return nil, err
	}
	st.journalBytes = info.Size()
	if p.lay != nil {
		if err := journalSideMeasures(opts.JournalPath, filepath.Join(p.dir, "side.journal"), s, p.lay); err != nil {
			return nil, err
		}
	}
	var factoryS float64
	start := time.Now()
	rec, report, err := durable.Recover(opts, func() (*metasched.Service, error) {
		t := time.Now()
		svc, _, err := newService(p.sp, p.seed)
		factoryS = time.Since(t).Seconds()
		return svc, err
	})
	if err != nil {
		return []string{"recover: " + err.Error()}, nil
	}
	st.recoverS = time.Since(start).Seconds() - factoryS
	st.recovery = report
	defer rec.Close()
	if h := durable.StateHash(rec.Unwrap()); h != st.hash {
		violations = append(violations, fmt.Sprintf("recovered state hash %x differs from pre-close %x", h, st.hash))
	}
	audit := fault.NewAudit(rec.Scheduler())
	if err := audit.Check(); err != nil {
		violations = append(violations, "audit after recovery: "+err.Error())
	}
	if err := audit.CheckRecoveryCoherence(rec.AppliedLive()); err != nil {
		violations = append(violations, "recovery coherence: "+err.Error())
	}
	return violations, nil
}
