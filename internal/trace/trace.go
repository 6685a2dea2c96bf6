// Package trace records the decision history of a scheduling session: which
// windows were found and subtracted, which combination the optimizer chose,
// what was committed or postponed. A trace is the artifact a VO
// administrator inspects when a job was scheduled somewhere surprising —
// the textual equivalent of stepping through Figs. 2b→3 of the paper.
//
// The recorder is a bounded ring buffer: long metascheduler sessions keep
// the most recent events without unbounded growth. The zero-capacity
// recorder discards everything at zero cost, so call sites can trace
// unconditionally.
package trace

import (
	"fmt"
	"sync"

	"ecosched/internal/sim"
)

// Kind classifies an event.
type Kind int

const (
	// SearchStarted marks the beginning of an alternative search.
	SearchStarted Kind = iota
	// WindowFound marks one window located by the single-window search.
	WindowFound
	// SearchFailed marks a job for which no window exists on the list.
	SearchFailed
	// PlanChosen marks the optimizer's combination selection.
	PlanChosen
	// Committed marks a reservation booked into the grid.
	Committed
	// Postponed marks a job pushed to the next iteration.
	Postponed
	// Dropped marks a job abandoned after the postponement cap.
	Dropped
	// Revoked marks reservations cancelled by an owner reclaiming a slot
	// interval.
	Revoked
	// Recovered marks a failed node re-joining the pool.
	Recovered
	// Relaxed marks a degradation-ladder step: a job's price cap was
	// raised (and its AMP budget re-derived) after its retry attempts
	// were exhausted.
	Relaxed
	// PlanStale marks a chosen window that could no longer be committed
	// because the environment changed between planning and applying (a
	// node failed, an owner reclaimed the interval, or the clock passed
	// the window's start); the job is postponed instead.
	PlanStale
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SearchStarted:
		return "search-started"
	case WindowFound:
		return "window-found"
	case SearchFailed:
		return "search-failed"
	case PlanChosen:
		return "plan-chosen"
	case Committed:
		return "committed"
	case Postponed:
		return "postponed"
	case Dropped:
		return "dropped"
	case Revoked:
		return "revoked"
	case Recovered:
		return "recovered"
	case Relaxed:
		return "relaxed"
	case PlanStale:
		return "plan-stale"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded decision.
type Event struct {
	// Seq is the global sequence number (monotone per recorder).
	Seq int
	// Iteration is the scheduling iteration the event belongs to.
	Iteration int
	// Now is the simulated time when the event was recorded.
	Now sim.Time
	// Kind classifies the event.
	Kind Kind
	// Job names the subject job, when applicable.
	Job string
	// Detail is a human-readable specifics string.
	Detail string
}

// String renders the event as a log line.
func (e Event) String() string {
	job := e.Job
	if job == "" {
		job = "-"
	}
	return fmt.Sprintf("#%04d it=%d t=%v %-15s %-10s %s", e.Seq, e.Iteration, e.Now, e.Kind, job, e.Detail)
}

// Recorder accumulates events in a bounded ring. It is safe for concurrent
// use; the scheduler itself is single-goroutine but examples and tests may
// inspect traces while a session runs.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	events   []Event
	next     int // ring write position
	full     bool
	seq      int
	// current iteration context, stamped onto recorded events
	iteration int
	now       sim.Time
}

// NewRecorder builds a recorder keeping up to capacity events; capacity <= 0
// disables recording entirely.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{capacity: capacity}
	if capacity > 0 {
		r.events = make([]Event, capacity)
	}
	return r
}

// BeginIteration stamps subsequent events with the iteration context.
func (r *Recorder) BeginIteration(iteration int, now sim.Time) {
	if r == nil || r.capacity <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iteration = iteration
	r.now = now
}

// Record appends an event. The detail string is formatted before the lock is
// taken so concurrent emitters (e.g. search workers) contend only for the
// ring insertion, not for each other's formatting work.
func (r *Recorder) Record(kind Kind, job, detailFormat string, args ...any) {
	if r == nil || r.capacity <= 0 {
		return
	}
	detail := fmt.Sprintf(detailFormat, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e := Event{
		Seq:       r.seq,
		Iteration: r.iteration,
		Now:       r.now,
		Kind:      kind,
		Job:       job,
		Detail:    detail,
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % r.capacity
	if r.next == 0 {
		r.full = true
	}
}

// Events returns the retained events in recording order (oldest first).
func (r *Recorder) Events() []Event {
	if r == nil || r.capacity <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	if r.full {
		out = append(out, r.events[r.next:]...)
	}
	out = append(out, r.events[:r.next]...)
	return out
}
