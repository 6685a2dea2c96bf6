package fault

import (
	"fmt"
	"io"
	"sort"

	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// Driver is the service surface an event reaches: a *metasched.Service, or
// a decorator of one — the durable wrapper that journals each event, the
// model checker's seeded mutants.
type Driver interface {
	Scheduler() *metasched.Scheduler
	Submit(j *job.Job) error
	Tick() (*metasched.IterationReport, error)
	HandleNodeFailure(nodeLabel string) ([]string, error)
	HandleNodeRecovery(nodeLabel string) error
	HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error)
}

// Dispatch delivers e to the call its kind names. It returns the jobs a
// failure or revocation re-queued, and the report of the round a round event
// ran. It is the one place an event kind selects a service call: Inject, the
// durable wrapper's live and replay paths and the model checker use it.
func Dispatch(d Driver, e Event) ([]string, *metasched.IterationReport, error) {
	switch e.Kind {
	case Submit:
		return nil, nil, d.Submit(e.Job)
	case Fail:
		requeued, err := d.HandleNodeFailure(e.Node)
		return requeued, nil, err
	case Recover:
		return nil, nil, d.HandleNodeRecovery(e.Node)
	case Revoke:
		requeued, err := d.HandleRevocation(e.Node, e.Span)
		return requeued, nil, err
	case Round:
		rep, err := d.Tick()
		return nil, rep, err
	}
	return nil, nil, fmt.Errorf("unknown event kind %d", int(e.Kind))
}

// Inject is the audited step every event driver uses. It stamps an untimed
// event with the grid clock and dispatches it. An environmental event runs
// between the auditor's BeginEvent and EndEvent, so the auditor records the
// reservations it cancelled and flags any it added; a round clears the jobs
// it placed from the resurrection watch. Every event but a submit writes its
// transcript lines to w; a nil w keeps no transcript, and the lines are not
// formatted at all. Inject returns Dispatch's results; the caller runs the
// invariant check.
func Inject(d Driver, a *Audit, w io.Writer, e Event) ([]string, *metasched.IterationReport, error) {
	if e.At == Untimed {
		e.At = d.Scheduler().Grid().Now()
	}
	env := e.Kind != Submit && e.Kind != Round
	if env {
		a.BeginEvent()
	}
	requeued, rep, err := Dispatch(d, e)
	if err != nil {
		return nil, nil, fmt.Errorf("fault: applying %v: %w", e, err)
	}
	switch {
	case env:
		cancelled := a.EndEvent(e)
		if w != nil {
			fmt.Fprintf(w, "fault %v cancelled=%d requeued=%v drops=%d\n",
				e, len(cancelled), requeued, a.sched.DroppedCount())
		}
	case rep != nil:
		if w != nil {
			WriteIterationReport(w, rep)
		}
		for _, p := range rep.Placed {
			a.JobRescheduled(p.Job.Name)
		}
	}
	return requeued, rep, nil
}

// Session drives a metascheduler service through an event plan: before every
// round it applies the plan events whose time has come (in plan order), and
// it runs the Audit invariant checker after every event, the rounds
// included, failing fast on the first violation. Drivers apply their own
// events — submissions, a failure picked from the live state — through the
// same audited step, Apply.
//
// The whole run is written to the transcript writer in a canonical textual
// form. Because every input is deterministic — the plan is a sorted event
// list, the scheduler draws only from seeded RNGs — two sessions with the
// same seed and plan must produce byte-identical transcripts whatever the
// engine toggles (shard count, journaling); the chaos and crash-storm soaks
// pin exactly that. With no plan the session writes precisely what
// WriteIterationReport + WriteSummary produce for an undisturbed run, so
// the fault layer is provably neutral when idle.
type Session struct {
	d     Driver
	sched *metasched.Scheduler
	plan  *Plan
	audit *Audit
	w     io.Writer
	// next indexes the first plan event not yet applied.
	next int
}

// NewSession binds a service driver — a plain service or the durable
// journaling wrapper — to an event plan (nil means none) and a transcript
// writer. The plan is validated against the grid's node pool.
func NewSession(d Driver, plan *Plan, w io.Writer) (*Session, error) {
	if d == nil {
		return nil, fmt.Errorf("fault: nil service driver")
	}
	s := d.Scheduler()
	if w == nil {
		w = io.Discard
	}
	if plan != nil {
		if err := plan.Validate(s.Grid().Pool()); err != nil {
			return nil, err
		}
	}
	return &Session{d: d, sched: s, plan: plan, audit: NewAudit(s), w: w}, nil
}

// Audit returns the session's invariant checker.
func (s *Session) Audit() *Audit { return s.audit }

// Applied returns how many plan events have fired so far.
func (s *Session) Applied() int { return s.next }

// Run executes the given number of scheduling rounds under the plan. It
// stops with an error on the first invariant violation or scheduler
// failure; a normal return means the audit stayed clean throughout.
func (s *Session) Run(iterations int) error {
	for i := 0; i < iterations; i++ {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	WriteSummary(s.w, s.sched, s.next, s.plan.Len())
	return nil
}

// Step applies the due plan events, then one round event, and returns the
// round's report. Run(n) is exactly n Steps plus the summary footer;
// crash-storm drivers call Step directly so they can crash and resume
// between rounds and still assemble a byte-identical transcript.
func (s *Session) Step() (*metasched.IterationReport, error) {
	now := s.sched.Grid().Now()
	for s.next < s.plan.Len() && s.plan.Events[s.next].At <= now {
		e := s.plan.Events[s.next]
		s.next++
		if _, _, err := s.Apply(e); err != nil {
			return nil, err
		}
	}
	_, rep, err := s.Apply(Event{At: now, Kind: Round})
	return rep, err
}

// Apply applies one event through the injection step and checks the
// invariants after it, returning Dispatch's results. Plan events reach it
// from Step; a driver that submits its jobs, or picks its event from the
// live state such as failing the busiest node, calls it between Steps.
func (s *Session) Apply(e Event) ([]string, *metasched.IterationReport, error) {
	requeued, rep, err := Inject(s.d, s.audit, s.w, e)
	if err != nil {
		return nil, nil, err
	}
	if err := s.audit.Check(); err != nil {
		return nil, nil, fmt.Errorf("fault: after %v: %w", e, err)
	}
	return requeued, rep, nil
}

// WriteIterationReport writes one iteration's canonical transcript lines.
// Fault sessions and the undisturbed baseline runs of the neutrality tests
// share this function, so "empty plan" and "no fault layer at all" can be
// compared byte for byte.
func WriteIterationReport(w io.Writer, rep *metasched.IterationReport) {
	fmt.Fprintf(w, "it=%d now=%v batch=%d alts=%d planT=%v planC=%v\n",
		rep.Iteration, rep.Now, rep.BatchSize, rep.Alternatives, rep.PlanTime, rep.PlanCost)
	for _, p := range rep.Placed {
		fmt.Fprintf(w, "  placed %s -> %v wait=%v\n", p.Job.Name, p.Window.Window, p.WaitTime)
	}
	fmt.Fprintf(w, "  postponed=%v dropped=%v\n", rep.Postponed, rep.Dropped)
}

// WriteSummary writes the end-of-session canonical transcript footer: event
// application progress, the job ledger, retry-policy bookkeeping, terminal
// drops with reasons, and the per-domain owner income.
func WriteSummary(w io.Writer, s *metasched.Scheduler, applied, planned int) {
	fmt.Fprintf(w, "events=%d/%d queue=%d placed=%d\n", applied, planned, s.QueueLength(), s.PlacedCount())
	st := s.RetryStats()
	fmt.Fprintf(w, "retry cancelled=%d requeued=%d relaxed=%d exhausted=%d deadline=%d\n",
		st.Cancelled, st.Requeued, st.Relaxations, st.DroppedExhausted, st.DroppedDeadline)
	dropped := s.DroppedJobs()
	names := make([]string, 0, len(dropped))
	for name := range dropped {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "dropped %s reason=%s\n", name, dropped[name])
	}
	byDomain, total := s.Grid().OwnerIncome()
	domains := make([]string, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		fmt.Fprintf(w, "income %s=%v\n", d, byDomain[d])
	}
	fmt.Fprintf(w, "income total=%v\n", total)
}
