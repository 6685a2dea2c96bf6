package fault

import (
	"fmt"
	"sort"
	"strings"

	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// incomeEpsilon absorbs float64 rounding in the per-domain income ledger:
// a domain's balance is "negative" only below this, not at -0.0000000001
// left over from credit/refund round trips.
const incomeEpsilon = 1e-6

// resKey identifies a reservation exactly: a cancelled reservation
// re-appearing under the same (job, node, span) triple without a scheduler
// commit is a resurrection.
type resKey struct {
	name string
	node resource.NodeID
	span sim.Interval
}

func (k resKey) String() string {
	return fmt.Sprintf("%s@node%d:%v", k.name, k.node, k.span)
}

// Target is the scheduler surface the auditor reads: the grid plus the
// job, drop, and cancellation ledgers. *metasched.Scheduler satisfies it
// directly; tests wrap one and override a single accessor to prove each
// conservation check trips on exactly the ledger it guards.
type Target interface {
	Grid() *gridsim.Grid
	SubmittedCount() int
	QueueLength() int
	PlacedCount() int
	PlacedJobs() []string
	DroppedCount() int
	RetryStats() metasched.RetryStats
}

// Audit checks the metascheduler's global safety invariants after every
// injected fault event and every scheduling iteration:
//
//  1. no node holds overlapping bookings (double-booking);
//  2. no administrative domain's income ledger is negative — cancellations
//     refund at most what was actually charged;
//  3. job conservation: every job ever submitted is exactly one of queued,
//     placed, or terminally dropped;
//  4. cancellation conservation: every environment cancellation resolved
//     into exactly one of re-queue or terminal drop;
//  5. a failed node holds no live VO reservation;
//  6. no cancelled reservation is resurrected — in particular, a node
//     recovery adds no bookings at all;
//  7. the grid's live vacant-slot store, when active, is byte-identical to
//     the full rebuild from the bookings (gridsim.VacantStoreCoherent).
//
// Violations accumulate; Check returns an error describing the new ones so
// a driver can fail fast while tests can also inspect the full list.
type Audit struct {
	sched Target
	grid  *gridsim.Grid
	// cancelled maps reservations removed by fault events to the event
	// that removed them; cleared per job when the scheduler legitimately
	// re-places it.
	cancelled map[resKey]string
	// snapshot is the VO reservation set captured by BeginEvent.
	snapshot map[resKey]bool
	// violations is the append-only log of every invariant breach seen;
	// the first reported of them have been returned by Check.
	violations []string
	reported   int
}

// NewAudit builds an auditor over the scheduler and its grid.
func NewAudit(s Target) *Audit {
	return &Audit{
		sched:     s,
		grid:      s.Grid(),
		cancelled: make(map[resKey]string),
	}
}

// Violations returns every invariant breach recorded so far.
func (a *Audit) Violations() []string {
	out := make([]string, len(a.violations))
	copy(out, a.violations)
	return out
}

// CancelledKeys returns the auditor's outstanding cancelled-reservation
// records — the (job, node, span) keys removed by fault events whose jobs
// have not been legitimately re-placed — in sorted order. The model checker
// folds them into its canonical state hash: two histories that agree on
// scheduler and grid state but disagree on which reservations the
// resurrection check still watches are different states.
func (a *Audit) CancelledKeys() []string {
	keys := make([]string, 0, len(a.cancelled))
	for k := range a.cancelled {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return keys
}

// voReservations keys the grid's current VO reservations.
func (a *Audit) voReservations() map[resKey]bool {
	out := make(map[resKey]bool)
	for _, t := range a.grid.AllTasks() {
		if t.Local {
			continue
		}
		out[resKey{name: t.Name, node: t.Node, span: t.Span}] = true
	}
	return out
}

// BeginEvent snapshots the VO reservation set before a fault event applies.
func (a *Audit) BeginEvent() {
	a.snapshot = a.voReservations()
}

// EndEvent diffs the reservation set against the BeginEvent snapshot:
// removed reservations are recorded as cancelled by the event (feeding the
// resurrection check), and any reservation the event *added* is a violation
// — fault events only ever take capacity away, and a recovery in particular
// must re-join the node empty. It returns the cancelled keys in
// deterministic order for transcripts.
func (a *Audit) EndEvent(e Event) []string {
	after := a.voReservations()
	var removed []string
	for k := range a.snapshot {
		if !after[k] {
			a.cancelled[k] = e.String()
			removed = append(removed, k.String())
		}
	}
	for k := range after {
		if !a.snapshot[k] {
			a.violate("event %v added reservation %v: fault events must only remove capacity", e, k)
		}
	}
	a.snapshot = nil
	sort.Strings(removed)
	return removed
}

// JobRescheduled clears the job's cancelled-reservation records: the
// scheduler has legitimately re-placed it through a commit, so a future
// booking coinciding with an old span is not a resurrection.
func (a *Audit) JobRescheduled(name string) {
	for k := range a.cancelled {
		if k.name == name {
			delete(a.cancelled, k)
		}
	}
}

// violate records one invariant breach.
func (a *Audit) violate(format string, args ...any) {
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
}

// Check runs every invariant against the current scheduler and grid state.
// It returns an error describing the violations recorded since the previous
// Check — its own and those EndEvent flagged in between; all violations
// also accumulate in Violations.
func (a *Audit) Check() error {
	a.checkBookings()
	a.checkIncome()
	a.checkConservation()
	a.checkFailedNodes()
	a.checkResurrection()
	a.checkVacancy()
	fresh := a.violations[a.reported:]
	a.reported = len(a.violations)
	if len(fresh) > 0 {
		return fmt.Errorf("fault: %d invariant violation(s): %s", len(fresh), strings.Join(fresh, "; "))
	}
	return nil
}

// checkBookings verifies every node's booking list is valid, start-sorted
// and overlap-free.
func (a *Audit) checkBookings() {
	for _, n := range a.grid.Pool().Nodes() {
		tasks := a.grid.Tasks(n.ID)
		for i, t := range tasks {
			if t.Span.Empty() || !t.Span.Valid() {
				a.violate("node %s: booking %s has empty or invalid span %v", n.Label(), t.Name, t.Span)
			}
			if i == 0 {
				continue
			}
			prev := tasks[i-1]
			if prev.Span.Start > t.Span.Start {
				a.violate("node %s: bookings out of order (%s at %v after %s at %v)",
					n.Label(), prev.Name, prev.Span.Start, t.Name, t.Span.Start)
			}
			if prev.Span.End > t.Span.Start {
				a.violate("node %s: double-booking — %s %v overlaps %s %v",
					n.Label(), prev.Name, prev.Span, t.Name, t.Span)
			}
		}
	}
}

// checkIncome verifies no domain's ledger went negative: refunds are
// bounded by what was actually charged.
func (a *Audit) checkIncome() {
	byDomain, _ := a.grid.OwnerIncome()
	domains := make([]string, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		if float64(byDomain[d]) < -incomeEpsilon {
			a.violate("domain %s income %v is negative: refunded more than was charged", d, byDomain[d])
		}
	}
}

// checkConservation verifies the job and cancellation ledgers balance.
func (a *Audit) checkConservation() {
	submitted := a.sched.SubmittedCount()
	queued := a.sched.QueueLength()
	placed := a.sched.PlacedCount()
	dropped := a.sched.DroppedCount()
	if submitted != queued+placed+dropped {
		a.violate("job conservation broken: %d submitted != %d queued + %d placed + %d dropped",
			submitted, queued, placed, dropped)
	}
	st := a.sched.RetryStats()
	if st.Cancelled != st.Requeued+st.DroppedExhausted+st.DroppedDeadline {
		a.violate("cancellation conservation broken: %d cancelled != %d requeued + %d exhausted + %d deadline",
			st.Cancelled, st.Requeued, st.DroppedExhausted, st.DroppedDeadline)
	}
}

// checkFailedNodes verifies failed nodes hold no live VO reservation: the
// failure cancelled everything unfinished, and no new commit may land on a
// node publishing no vacancy.
func (a *Audit) checkFailedNodes() {
	now := a.grid.Now()
	for _, id := range a.grid.FailedNodes() {
		for _, t := range a.grid.Tasks(id) {
			if !t.Local && t.Span.End > now {
				a.violate("failed node %s holds live reservation %s %v",
					a.grid.Pool().Node(id).Label(), t.Name, t.Span)
			}
		}
	}
}

// checkVacancy verifies the incrementally maintained vacant-slot store
// still equals the full rebuild from the bookings — slot for slot, including
// index invariants. A grid without an active store (oracle knob on, or no
// publication yet) passes trivially, so the check costs nothing on the
// rebuild path while pinning the live path after every fault event and
// iteration of the chaos soak and the model checker.
func (a *Audit) checkVacancy() {
	if err := a.grid.VacantStoreCoherent(); err != nil {
		a.violate("vacant store diverged from rebuild: %v", err)
	}
}

// CheckRecoveryCoherence verifies the recovery-coherence invariant against
// the journal-derived applied-plan ledger (durable recovery computes it from
// round and cancellation records): no applied plan is lost — every ledger
// entry is in the scheduler's placed set — and no unlogged booking is
// resurrected — every placed job and every live VO reservation traces back
// to a journaled applied plan. Violations accumulate like every other check.
func (a *Audit) CheckRecoveryCoherence(appliedLive []string) error {
	before := len(a.violations)
	ledger := make(map[string]bool, len(appliedLive))
	for _, name := range appliedLive {
		ledger[name] = true
	}
	placed := make(map[string]bool)
	for _, name := range a.sched.PlacedJobs() {
		placed[name] = true
		if !ledger[name] {
			a.violate("recovery coherence: placed job %s has no journaled applied plan", name)
		}
	}
	for _, name := range appliedLive {
		if !placed[name] {
			a.violate("recovery coherence: applied plan for %s lost — job is not in the placed set", name)
		}
	}
	now := a.grid.Now()
	for _, t := range a.grid.AllTasks() {
		if t.Local || t.Span.End <= now {
			continue
		}
		if !ledger[t.Name] {
			a.violate("recovery coherence: live reservation %s %v is not covered by any journaled applied plan",
				t.Name, t.Span)
		}
	}
	if fresh := a.violations[before:]; len(fresh) > 0 {
		return fmt.Errorf("fault: %d recovery-coherence violation(s): %s", len(fresh), strings.Join(fresh, "; "))
	}
	return nil
}

// checkResurrection verifies no reservation cancelled by a fault event is
// booked again without the scheduler having re-placed its job.
func (a *Audit) checkResurrection() {
	live := a.voReservations()
	keys := make([]resKey, 0, len(a.cancelled))
	for k := range a.cancelled {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		if live[k] {
			a.violate("reservation %v cancelled by %s was resurrected", k, a.cancelled[k])
		}
	}
}
