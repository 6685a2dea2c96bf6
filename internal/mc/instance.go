package mc

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"ecosched/internal/codec"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
)

// Instance is one live replay of a trace: a fresh grid, scheduler, service,
// and auditor driven action by action. Events route through fault.Inject,
// the injection step a fault.Session uses. The explorer builds
// one instance per candidate successor; the differential tests reuse it as
// a transcript generator.
type Instance struct {
	u     *Universe
	grid  *gridsim.Grid
	sched *metasched.Scheduler
	svc   *metasched.Service
	// handlers receives the events: svc itself, or svc decorated with the
	// mutation's bug.
	handlers fault.Driver
	audit    *fault.Audit
	// round is the open evaluate/apply round, nil between rounds.
	round *metasched.Round
	// submitted marks jobs already handed to the scheduler.
	submitted []bool
	// w receives the session-format transcript; nil keeps none, and the
	// lines are never formatted.
	w   io.Writer
	mut Mutation
}

// NewInstance builds a fresh instance of the universe. The transcript
// writer may be nil; mut seeds a deliberate bug (MutNone for the real
// protocol).
func NewInstance(u *Universe, mut Mutation, w io.Writer) (*Instance, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	pool, err := u.pool()
	if err != nil {
		return nil, err
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		return nil, err
	}
	sched, err := metasched.New(u.config(), grid)
	if err != nil {
		return nil, err
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		return nil, err
	}
	return &Instance{
		svc:       svc,
		handlers:  mut.handlers(svc),
		u:         u,
		grid:      grid,
		sched:     sched,
		audit:     fault.NewAudit(sched),
		submitted: make([]bool, len(u.Jobs)),
		w:         w,
		mut:       mut,
	}, nil
}

// Feasible reports whether the action is structurally applicable in the
// current state: known jobs and nodes only, no duplicate submits,
// evaluate/apply strictly alternating, a round event or crash only between
// rounds, fail/revoke only on live nodes, recover only on failed ones. The
// explorer enumerates only feasible actions; the minimizer skips infeasible
// ones left behind by deletions.
func (in *Instance) Feasible(a Action) bool {
	switch a.Step {
	case StepEvaluate, StepCrash:
		return in.round == nil
	case StepApply:
		return in.round != nil
	case StepTick:
		return true
	case StepEvent:
		e := a.Event
		if e.Kind == fault.Submit {
			j := in.u.jobIndex(e.Job.Name)
			return j >= 0 && !in.submitted[j]
		}
		if e.Kind == fault.Round {
			return in.round == nil
		}
		n := in.u.nodeIndex(e.Node)
		return n >= 0 && in.grid.NodeFailed(resource.NodeID(n)) == (e.Kind == fault.Recover)
	default:
		return false
	}
}

// Apply executes one action against the live session and then checks the
// full audit safety set. Any returned error — an invariant violation or an
// unexpected scheduler failure — marks the trace as a counterexample.
func (in *Instance) Apply(a Action) error {
	var err error
	switch a.Step {
	case StepEvent:
		err = in.inject(a.Event)
	case StepEvaluate:
		if in.round, err = in.svc.BeginRound(); err == nil {
			err = in.round.Evaluate()
		}
	case StepApply:
		err = in.apply()
	case StepTick:
		err = in.grid.Advance(in.grid.Now().Add(in.u.Step))
	case StepCrash:
		err = in.crash()
	default:
		err = fmt.Errorf("mc: unknown step %d", int(a.Step))
	}
	if err != nil {
		return err
	}
	return in.check()
}

// apply closes the open round, after the blind applier under MutBlindApply,
// and writes its transcript lines.
func (in *Instance) apply() error {
	if in.mut == MutBlindApply {
		in.blindApply()
	}
	if err := in.round.Apply(); err != nil {
		return err
	}
	rep, err := in.round.Finish()
	if err != nil {
		return err
	}
	in.round = nil
	if in.w != nil {
		fault.WriteIterationReport(in.w, rep)
	}
	for _, p := range rep.Placed {
		in.audit.JobRescheduled(p.Job.Name)
	}
	return nil
}

// blindApply seeds the MutBlindApply bug: if the open round's pending plan
// is stale, its placements are force-booked exactly as a non-re-validating
// applier would write them — no overlap, clock, or failed-node checks, no
// owner credit, no store maintenance. The real apply still runs afterwards,
// so a window the grid would have accepted books twice.
func (in *Instance) blindApply() {
	p := in.round.Plan()
	if !p.Stale(in.grid.Epoch()) {
		return
	}
	for _, ch := range p.Choices {
		for _, pl := range ch.Window.Placements {
			in.grid.ForceBook(gridsim.Task{
				Name: ch.Job.Name,
				Node: pl.Source.Node.ID,
				Span: pl.Used,
				Cost: pl.Cost(),
			})
		}
	}
}

// inject applies an event through the injection step a fault.Session uses,
// so session-shaped traces replay byte-identically. A submit's job is built
// afresh from the universe's spec.
func (in *Instance) inject(e fault.Event) error {
	j := -1
	if e.Kind == fault.Submit {
		if j = in.u.jobIndex(e.Job.Name); j < 0 {
			return fmt.Errorf("mc: unknown job %q", e.Job.Name)
		}
		e.Job = in.u.buildJob(j)
	}
	if _, _, err := fault.Inject(in.handlers, in.audit, in.w, e); err != nil {
		return err
	}
	if j >= 0 {
		in.submitted[j] = true
	}
	return nil
}

// crash simulates a process crash at a committed boundary followed by
// recovery from a durability checkpoint: the complete canonical state —
// grid and scheduler — is encoded through the codec's checkpoint wire
// format, the grid streamed live as the durable service does, decoded back,
// and restored in place into the same
// objects (the auditor and the transcript writer keep their pointers). The
// protocol property is that durability is invisible: the post-recovery hash
// must equal the pre-crash hash, and a divergence is a safety violation.
// MutLossyCrash seeds the classic bug — recovery that silently drops the
// tail of the job queue — which this check must catch.
func (in *Instance) crash() error {
	before := in.Hash()
	svcState, err := in.svc.ExportState()
	if err != nil {
		return err
	}
	cp := &codec.Checkpoint{Sched: in.sched.ExportState(), Service: svcState}
	data, err := codec.AppendCheckpoint(nil, cp, in.grid)
	if err != nil {
		return err
	}
	restored, err := codec.DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	if q := restored.Sched.Queue; in.mut == MutLossyCrash && len(q) > 0 {
		restored.Sched.Queue = q[:len(q)-1]
	}
	if err := in.grid.RestoreState(restored.Grid); err != nil {
		return err
	}
	if err := in.sched.RestoreState(restored.Sched); err != nil {
		return err
	}
	if err := in.svc.RestoreState(restored.Service); err != nil {
		return err
	}
	if after := in.Hash(); after != before {
		return fmt.Errorf("mc: crash recovery changed committed state: hash %016x -> %016x", before, after)
	}
	return nil
}

// check runs the audit and converts any violation — including ones the
// event hooks recorded — into an error. Instances are single-trace, so a
// non-empty violation log always means this trace is unsafe.
func (in *Instance) check() error {
	in.audit.Check()
	if v := in.audit.Violations(); len(v) > 0 {
		return fmt.Errorf("mc: safety violated: %s", strings.Join(v, "; "))
	}
	return nil
}

// Hash returns the FNV-64a digest of the complete canonical state: grid,
// scheduler, open round, and the auditor's cancelled-reservation
// watch list. Two states with equal hashes are treated as the same node of the
// transition system.
func (in *Instance) Hash() uint64 {
	var b strings.Builder
	in.grid.CanonicalState(&b)
	in.sched.CanonicalState(&b)
	if in.round != nil {
		in.round.CanonicalState(&b)
	}
	for _, k := range in.audit.CancelledKeys() {
		b.WriteString("watch ")
		b.WriteString(k)
		b.WriteByte('\n')
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

// Drain is the liveness check: close any open round, recover every failed
// node, then run fault-free tick rounds — so backoff-gated jobs come due as
// the clock advances — until the queue empties. If
// the queue is still non-empty after maxIter rounds some submitted job
// neither placed nor dropped — a liveness violation.
func (in *Instance) Drain(maxIter int) error {
	if in.round != nil {
		if err := in.Apply(Action{Step: StepApply}); err != nil {
			return err
		}
	}
	for _, n := range in.u.Nodes {
		if a := event(fault.Recover, n.Name); in.Feasible(a) {
			if err := in.Apply(a); err != nil {
				return err
			}
		}
	}
	for i := 0; i < maxIter && in.sched.QueueLength() > 0; i++ {
		if err := in.Apply(event(fault.Round, "")); err != nil {
			return err
		}
	}
	if n := in.sched.QueueLength(); n > 0 {
		return fmt.Errorf("mc: liveness violated: %d job(s) still queued after fault-free drain of %d iterations",
			n, maxIter)
	}
	return nil
}

// Replay builds a fresh instance and applies the whole trace, failing on
// the first violating action. The returned instance is the reached state.
func Replay(u *Universe, mut Mutation, trace []Action, w io.Writer) (*Instance, error) {
	in, err := NewInstance(u, mut, w)
	if err != nil {
		return nil, err
	}
	for i, a := range trace {
		if err := in.Apply(a); err != nil {
			return in, fmt.Errorf("mc: action %d (%v): %w", i, a, err)
		}
	}
	return in, nil
}

// replayLenient applies the trace skipping structurally infeasible actions
// — the minimizer's deletions can orphan an apply or recover, and skipping
// keeps the shorter candidate meaningful. It returns the first violation
// error, or nil if the trace is clean.
func replayLenient(u *Universe, mut Mutation, trace []Action) (*Instance, error) {
	in, err := NewInstance(u, mut, nil)
	if err != nil {
		return nil, err
	}
	for _, a := range trace {
		if !in.Feasible(a) {
			continue
		}
		if err := in.Apply(a); err != nil {
			return in, err
		}
	}
	return in, nil
}
