package mc

import (
	"fmt"
	"strings"

	"ecosched/internal/fault"
	"ecosched/internal/job"
)

// Step is the part of an explorer transition that is not a service event:
// the harness splitting a round in two, advancing the clock idle, or
// crashing the process.
type Step int

const (
	// StepEvent applies the action's event — a submit, a fault or a whole
	// round — through fault.Inject.
	StepEvent Step = iota
	// StepEvaluate opens a round: BeginRound (seed, freeze the batch)
	// followed by Evaluate (publish, search and optimize against the
	// epoch-stamped snapshot). Read-only on the grid, so the chosen
	// combination is optimistic.
	StepEvaluate
	// StepApply closes the open round: the serial applier re-validates the
	// pending plan window by window, postpones the rest (stale rejections
	// included), and Finish advances the clock one step.
	StepApply
	// StepTick advances the clock one step without scheduling — the retry
	// backoff timer firing, or dead time between rounds.
	StepTick
	// StepCrash simulates a process crash at a committed boundary followed
	// by durability recovery: the complete canonical state is exported
	// through the codec's checkpoint wire format, decoded back, and
	// restored in place. The post-recovery state must hash-equal the
	// pre-crash committed state — a divergence is a safety violation. Only
	// between rounds (an open round is by definition uncommitted).
	StepCrash
)

var stepNames = [...]string{"event", "evaluate", "apply", "tick", "crash"}

// String names the step: its keyword in a trace script.
func (s Step) String() string {
	if s < 0 || int(s) >= len(stepNames) {
		return fmt.Sprintf("step(%d)", int(s))
	}
	return stepNames[s]
}

// Action is one transition: a harness step, or (StepEvent) an untimed
// service event in the shared fault.Event form.
type Action struct {
	Step  Step
	Event fault.Event
}

// String writes the action as one trace script line: the step's keyword, or
// the event's untimed text form ("submit:j1", "fail:n2", "revoke:n1:40-120").
func (a Action) String() string {
	if a.Step == StepEvent {
		return a.Event.String()
	}
	return a.Step.String()
}

// event wraps an untimed event as an action.
func event(kind fault.Kind, node string) Action {
	return Action{Event: fault.Event{At: fault.Untimed, Kind: kind, Node: node}}
}

// submit is the action submitting the universe's job j. The event carries
// the job's name; every replay builds the job itself from its spec.
func (u *Universe) submit(j int) Action {
	return Action{Event: fault.Event{At: fault.Untimed, Kind: fault.Submit, Job: &job.Job{Name: u.Jobs[j].Name}}}
}

// revoke is the action reclaiming the universe's RevokeSpan on node n.
func (u *Universe) revoke(n int) Action {
	a := event(fault.Revoke, u.Nodes[n].Name)
	a.Event.Span = u.RevokeSpan
	return a
}

// script writes a trace, one action per line.
func script(trace []Action) string {
	var b strings.Builder
	for _, a := range trace {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}
