package mc

import (
	"strings"

	"ecosched/internal/fault"
)

// SessionCompatible reports whether a fault.Session can apply the trace
// event for event: every evaluate immediately followed by its apply — the
// pair is one round event — and no bare clock ticks or crashes.
func SessionCompatible(trace []Action) bool {
	open := false
	for _, a := range trace {
		switch a.Step {
		case StepEvaluate:
			if open {
				return false
			}
			open = true
		case StepApply:
			if !open {
				return false
			}
			open = false
		case StepEvent:
			if open {
				return false
			}
		default:
			return false
		}
	}
	return !open
}

// SessionTranscripts replays a session-compatible trace twice — once
// through the explorer's instance, once through a fresh fault.Session that
// applies the trace's own events, each evaluate/apply pair as one round
// event — and returns both transcripts, each closed by the session footer.
// The caller asserts byte equality.
func SessionTranscripts(u *Universe, trace []Action) (mcT, sessT string, err error) {
	var mcB strings.Builder
	in, err := Replay(u, MutNone, trace, &mcB)
	if err != nil {
		return "", "", err
	}

	fresh, err := NewInstance(u, MutNone, nil)
	if err != nil {
		return "", "", err
	}
	var sessB strings.Builder
	sess, err := fault.NewSession(fresh.svc, nil, &sessB)
	if err != nil {
		return "", "", err
	}
	events := 0
	for _, a := range trace {
		e := a.Event
		switch {
		case a.Step == StepApply:
			e = fault.Event{At: fault.Untimed, Kind: fault.Round}
		case a.Step != StepEvent:
			continue
		case e.Kind == fault.Submit:
			e.Job = u.buildJob(u.jobIndex(e.Job.Name))
		case e.Kind != fault.Round:
			events++
		}
		if _, _, err := sess.Apply(e); err != nil {
			return "", "", err
		}
	}
	fault.WriteSummary(&mcB, in.sched, events, events)
	fault.WriteSummary(&sessB, fresh.sched, events, events)
	return mcB.String(), sessB.String(), nil
}
