package fault

import (
	"fmt"
	"io"
	"sort"

	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// Handler is the service surface an environment event reaches: a
// *metasched.Service, or the durable wrapper that journals each event.
type Handler interface {
	HandleNodeFailure(nodeLabel string) ([]string, error)
	HandleNodeRecovery(nodeLabel string) error
	HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error)
}

// ServiceDriver is the surface a session drives: the event handlers and the
// round runner.
type ServiceDriver interface {
	Handler
	Scheduler() *metasched.Scheduler
	Tick() (*metasched.IterationReport, error)
}

// Dispatch delivers e to the handler its kind names and returns the jobs it
// re-queued (none for a recovery). It is the one place an event kind selects
// a handler: Inject and the durable wrapper's live and replay paths use it.
func Dispatch(h Handler, e Event) ([]string, error) {
	switch e.Kind {
	case Fail:
		return h.HandleNodeFailure(e.Node)
	case Recover:
		return nil, h.HandleNodeRecovery(e.Node)
	case Revoke:
		return h.HandleRevocation(e.Node, e.Span)
	}
	return nil, fmt.Errorf("unknown event kind %d", int(e.Kind))
}

// Inject is the injection step every event driver uses: it dispatches e
// between the auditor's BeginEvent and EndEvent, so the auditor records the
// reservations the event cancelled and flags any it added, and writes the
// event's transcript line. It returns the jobs the event re-queued; the
// caller runs the invariant check.
func Inject(h Handler, a *Audit, w io.Writer, e Event) ([]string, error) {
	a.BeginEvent()
	requeued, err := Dispatch(h, e)
	if err != nil {
		return nil, fmt.Errorf("fault: applying %v: %w", e, err)
	}
	cancelled := a.EndEvent(e)
	fmt.Fprintf(w, "fault %v cancelled=%d requeued=%v drops=%d\n",
		e, len(cancelled), requeued, len(a.sched.DroppedJobs()))
	return requeued, nil
}

// Session drives a metascheduler service through a fault plan: before every
// round it applies the plan events whose time has come (in plan order)
// through the service's event handlers, re-queuing or dropping the affected
// jobs through the scheduler's retry policy, and it runs the Audit invariant
// checker after every injected event and every round, failing fast on the
// first violation.
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
	d     ServiceDriver
	sched *metasched.Scheduler
	plan  *Plan
	audit *Audit
	w     io.Writer
	// next indexes the first plan event not yet applied.
	next int
}

// NewSession binds a service driver — a plain service or the durable
// journaling wrapper — to a fault plan (nil means no faults) and a
// transcript writer. The plan is validated against the grid's node pool.
func NewSession(d ServiceDriver, plan *Plan, w io.Writer) (*Session, error) {
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

// Run executes the given number of scheduling iterations under the fault
// plan. It stops with an error on the first invariant violation or
// scheduler failure; a normal return means the audit stayed clean
// throughout.
func (s *Session) Run(iterations int) error {
	for i := 0; i < iterations; i++ {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	WriteSummary(s.w, s.sched, s.next, s.plan.Len())
	return nil
}

// Step runs one audited round and returns its report: inject due events,
// run the iteration, write its transcript, clear re-placed jobs from the
// resurrection watch, check the invariants. Run(n) is exactly n Steps plus
// the summary footer; crash-storm drivers call Step directly so they can
// crash and resume between rounds and still assemble a byte-identical
// transcript.
func (s *Session) Step() (*metasched.IterationReport, error) {
	if err := s.injectDue(); err != nil {
		return nil, err
	}
	rep, err := s.d.Tick()
	if err != nil {
		return nil, err
	}
	WriteIterationReport(s.w, rep)
	for _, p := range rep.Placed {
		s.audit.JobRescheduled(p.Job.Name)
	}
	if err := s.audit.Check(); err != nil {
		return nil, fmt.Errorf("fault: after iteration %d: %w", rep.Iteration, err)
	}
	return rep, nil
}

// injectDue injects every not-yet-applied plan event whose time has been
// reached, in plan order.
func (s *Session) injectDue() error {
	now := s.sched.Grid().Now()
	for s.next < s.plan.Len() && s.plan.Events[s.next].At <= now {
		e := s.plan.Events[s.next]
		s.next++
		if _, err := s.Inject(e); err != nil {
			return err
		}
	}
	return nil
}

// Inject applies one event through the injection step and checks the
// invariants after it, returning the jobs it re-queued. Plan events reach it
// from Step; a driver that picks its event from the live state, such as
// failing the busiest node, calls it between Steps.
func (s *Session) Inject(e Event) ([]string, error) {
	requeued, err := Inject(s.d, s.audit, s.w, e)
	if err != nil {
		return nil, err
	}
	if err := s.audit.Check(); err != nil {
		return nil, fmt.Errorf("fault: after event %v: %w", e, err)
	}
	return requeued, nil
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
