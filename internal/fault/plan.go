// Package fault is the deterministic event engine for the metascheduler.
// Everything a driver does to the service is one Event — a job submission, a
// scheduling round, and the owner-side changes the paper's non-dedicated
// resources undergo between iterations: node crashes, node recoveries
// (re-join with fresh vacancy) and transient slot revocations (an owner
// reclaiming a booked interval). Every event reaches the service through a
// single switch, Dispatch; Inject wraps it with the invariant auditor, and a
// Session replays a Plan of timed events between its rounds. The journal
// records the same events and the model checker enumerates them, so one
// text form reads back everything either writes.
//
// Everything is deterministic: a Plan is an explicit sorted event list, the
// generators draw only from an explicitly seeded sim.RNG, and the Session
// driver emits a canonical transcript — so the chaos soak can require
// byte-identical behaviour across every configuration that must not change
// a schedule (shard count, journaling) and the Audit invariant checker can
// pin the global safety properties after every injected event.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Kind classifies an event.
type Kind int

const (
	// Submit hands a job to the service's queue.
	Submit Kind = iota
	// Fail crashes a node: vacancy disappears, live reservations cancel.
	Fail
	// Recover re-joins a failed node with fresh vacancy.
	Recover
	// Revoke reclaims a slot interval for the owner, cancelling only the
	// VO reservations overlapping it.
	Revoke
	// Round runs one full scheduling round and advances the clock a step.
	Round
	// NumKinds is the number of kinds: a per-kind tally is a [NumKinds]int.
	NumKinds
)

var kindNames = [NumKinds]string{"submit", "fail", "recover", "revoke", "round"}

// String names the kind: the keyword of the event's text form and the
// journal record's kind.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind is String's inverse.
func ParseKind(s string) (Kind, error) {
	for k := Submit; k < NumKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown event kind %q", s)
}

// Untimed is the At of an event that applies whenever it is reached: a
// model-checker trace line. Inject stamps it with the clock it applies at.
const Untimed sim.Time = -1

// Event is one step a driver applies to the service, the one form every
// step takes: plans list them, the model checker enumerates them, the
// journal records each one applied, stamped with the clock it applied at.
type Event struct {
	// At is the time the event applies: a plan fires it before the first
	// round whose clock has reached it. Untimed fires when reached.
	At sim.Time
	// Kind classifies the event.
	Kind Kind
	// Node is the target node label (fail, recover, revoke).
	Node string
	// Span is the reclaimed interval; Revoke events only.
	Span sim.Interval
	// Job is the submitted job; Submit events only. An event read from
	// text carries the job's name alone, which the driver resolves.
	Job *job.Job
}

// String renders the event in its text form,
// kind[@time][:node|:job][:start-end]: "fail@300:n3", "revoke:n5:500-700",
// "submit@0:j1", "round". The time is left out of an untimed event.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.At != Untimed {
		fmt.Fprintf(&b, "@%d", e.At)
	}
	switch {
	case e.Job != nil:
		b.WriteString(":" + e.Job.Name)
	case e.Node != "":
		b.WriteString(":" + e.Node)
	}
	if e.Kind == Revoke {
		fmt.Fprintf(&b, ":%d-%d", e.Span.Start, e.Span.End)
	}
	return b.String()
}

// Validate checks one event in isolation. It accepts exactly what the text
// form can carry, so ParseEvent(e.String()) reproduces every valid event: a
// label (node or job name) holds no ':' or ';' and no surrounding space;
// fail, recover and revoke name a node, submit a job and round neither; only
// a revoke has a span, and that span is non-empty and starts at or after
// zero.
func (e Event) Validate() error {
	label := e.Node
	switch {
	case e.At < 0 && e.At != Untimed:
		return fmt.Errorf("fault: event %v at negative time", e)
	case e.Kind < 0 || e.Kind >= NumKinds:
		return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
	case e.Kind != Revoke && e.Span != (sim.Interval{}):
		return fmt.Errorf("fault: %v event %v carries a span", e.Kind, e)
	case e.Kind == Revoke && (e.Span.Start < 0 || e.Span.Empty() || !e.Span.Valid()):
		return fmt.Errorf("fault: revoke event %v with empty, invalid or negative span", e)
	case (e.Kind == Submit) != (e.Job != nil):
		return fmt.Errorf("fault: %v event %v: a submit carries a job, no other event does", e.Kind, e)
	case (e.Kind == Submit || e.Kind == Round) && e.Node != "":
		return fmt.Errorf("fault: %v event %v names a node", e.Kind, e)
	case e.Kind == Round:
		return nil
	case e.Kind == Submit:
		label = e.Job.Name
	}
	if label == "" || strings.ContainsAny(label, ":;") || strings.TrimSpace(label) != label {
		return fmt.Errorf("fault: %v event at %v has label %q (want non-empty, no ':' or ';', no surrounding space)", e.Kind, e.At, label)
	}
	return nil
}

// ParseEvent parses one event in the text form String writes:
//
//	fail@300:n3   recover:n3   revoke@450:n5:500-700   submit:j1   round@150
//
// The @time is optional; without it the event is Untimed. A submit event
// carries a job holding only its name.
func ParseEvent(s string) (Event, error) {
	head, rest, hasArg := strings.Cut(s, ":")
	kindStr, atStr, timed := strings.Cut(head, "@")
	kind, err := ParseKind(kindStr)
	if err != nil {
		return Event{}, fmt.Errorf("fault: entry %q: %w", s, err)
	}
	e := Event{At: Untimed, Kind: kind}
	if timed {
		at, err := strconv.ParseInt(atStr, 10, 64)
		if err != nil || at < 0 {
			return Event{}, fmt.Errorf("fault: entry %q has bad time %q", s, atStr)
		}
		e.At = sim.Time(at)
	}
	if kind == Revoke {
		node, span, _ := strings.Cut(rest, ":")
		from, to, _ := strings.Cut(span, "-")
		start, errStart := strconv.ParseInt(from, 10, 64)
		end, errEnd := strconv.ParseInt(to, 10, 64)
		if errStart != nil || errEnd != nil {
			return Event{}, fmt.Errorf("fault: revoke entry %q needs a span :start-end", s)
		}
		rest, e.Span = node, sim.Interval{Start: sim.Time(start), End: sim.Time(end)}
	}
	switch {
	case kind == Round && hasArg:
		return Event{}, fmt.Errorf("fault: round entry %q takes no argument", s)
	case kind == Submit:
		e.Job = &job.Job{Name: rest}
	default:
		e.Node = rest
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}

// Plan is a normalized (time-sorted) event schedule.
type Plan struct {
	// Events in non-decreasing At order; ties keep construction order, so
	// a storm's simultaneous failures apply in a defined sequence.
	Events []Event
}

// NewPlan builds a plan from events, validating and stable-sorting by time.
func NewPlan(events ...Event) (*Plan, error) {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].At < sorted[k].At })
	return &Plan{Events: sorted}, nil
}

// String renders the plan in the DSL, one entry per event joined by ';'.
// ParsePlan(p.String()) reproduces the plan exactly.
func (p *Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Len returns the number of events.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// Validate checks every event against the grid's node pool: every node an
// event names exists, and every submitted job is complete — a job read from
// text carries only its name, which no plan can turn into a request. Parsing
// alone cannot know the pool; CLI and test drivers call this before running
// a plan.
func (p *Plan) Validate(pool *resource.Pool) error {
	for _, e := range p.Events {
		switch {
		case e.Kind == Submit:
			if err := e.Job.Validate(); err != nil {
				return fmt.Errorf("fault: event %v: %w", e, err)
			}
		case e.Kind != Round && pool.ByName(e.Node) == nil:
			return fmt.Errorf("fault: event %v targets unknown node %q", e, e.Node)
		}
	}
	return nil
}

// ParsePlan parses the textual plan DSL:
//
//	fail@300:n3;recover@600:n3;revoke@450:n5:500-700
//
// Entries are separated by ';' (surrounding spaces ignored, empty entries
// skipped); each is one event in ParseEvent's text form. The result is
// normalized (time-sorted).
func ParsePlan(s string) (*Plan, error) {
	var events []Event
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		e, err := ParseEvent(entry)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return NewPlan(events...)
}

// RandomSpec parameterizes RandomPlan.
type RandomSpec struct {
	// Seed drives every random choice.
	Seed uint64
	// Horizon bounds event times to [Step, Horizon).
	Horizon sim.Time
	// Step is the event grid: one potential fault per Step boundary —
	// aligned with a metascheduler session's iteration step, this yields
	// one potential fault per iteration.
	Step sim.Duration
	// Rate is the probability a boundary carries a fault event; 0.05 and
	// 0.20 are the benchmark's "5%" and "20%" fault rates.
	Rate float64
	// RevokeFraction is the share of fault events that are slot
	// revocations rather than node crashes.
	RevokeFraction float64
	// Outage is how long a crashed node stays down before its recovery
	// event; 0 makes crashes permanent.
	Outage sim.Duration
}

// RandomPlan compiles a seeded random fault schedule over the spec's
// horizon. Crashes never take the last live node down, and every crash with
// a positive Outage schedules the matching recovery, so long sessions churn
// instead of draining the pool.
func RandomPlan(pool *resource.Pool, spec RandomSpec) (*Plan, error) {
	if spec.Step <= 0 || spec.Horizon <= 0 {
		return nil, fmt.Errorf("fault: random plan needs positive step and horizon")
	}
	if spec.Rate < 0 || spec.Rate > 1 {
		return nil, fmt.Errorf("fault: random plan rate %v outside [0, 1]", spec.Rate)
	}
	rng := sim.NewRNG(spec.Seed)
	nodes := pool.Nodes()
	down := make(map[string]sim.Time) // label -> recovery time (0 = permanent)
	var events []Event
	for at := sim.Time(0).Add(spec.Step); at < spec.Horizon; at = at.Add(spec.Step) {
		// Apply scheduled recoveries first so the down-set is current.
		for label, until := range down {
			if until > 0 && until <= at {
				delete(down, label)
			}
		}
		if !rng.Bool(spec.Rate) {
			continue
		}
		if rng.Float64() < spec.RevokeFraction {
			// Revoke a random interval on a random live node.
			up := liveNodes(nodes, down)
			if len(up) == 0 {
				continue
			}
			label := up[rng.IntN(len(up))]
			start := at.Add(spec.Step / 2)
			length := spec.Step * sim.Duration(1+rng.IntN(4))
			events = append(events, Event{
				At: at, Kind: Revoke, Node: label,
				Span: sim.Interval{Start: start, End: start.Add(length)},
			})
			continue
		}
		up := liveNodes(nodes, down)
		if len(up) <= 1 {
			continue // never take the last node down
		}
		label := up[rng.IntN(len(up))]
		events = append(events, Event{At: at, Kind: Fail, Node: label})
		if spec.Outage > 0 {
			recovery := at.Add(spec.Outage)
			events = append(events, Event{At: recovery, Kind: Recover, Node: label})
			down[label] = recovery
		} else {
			down[label] = 0
		}
	}
	return NewPlan(events...)
}

// liveNodes returns the labels not currently down, in pool order.
func liveNodes(nodes []*resource.Node, down map[string]sim.Time) []string {
	var up []string
	for _, n := range nodes {
		if _, d := down[n.Label()]; !d {
			up = append(up, n.Label())
		}
	}
	return up
}
