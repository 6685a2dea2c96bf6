package mc

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/fault"
)

// parseScript reads a trace script back: one action per line, '#' comments
// and blank lines ignored. A harness step is its keyword; every other line
// is an event, read by fault.ParseEvent — the parser plans and the
// journal's text share — so a printed counterexample replays.
func parseScript(script string) ([]Action, error) {
	var trace []Action
	for ln, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := parseAction(line)
		if err != nil {
			return nil, fmt.Errorf("mc: line %d: %w", ln+1, err)
		}
		trace = append(trace, a)
	}
	return trace, nil
}

func parseAction(line string) (Action, error) {
	for s := StepEvaluate; s <= StepCrash; s++ {
		if line == s.String() {
			return Action{Step: s}, nil
		}
	}
	e, err := fault.ParseEvent(line)
	return Action{Event: e}, err
}

// trace parses a literal test trace, one action per ';'-separated entry.
func mustTrace(t testing.TB, s string) []Action {
	t.Helper()
	tr, err := parseScript(strings.ReplaceAll(s, ";", "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// model is the walk-side reference for Instance.Feasible: the submitted
// jobs, failed nodes and open round a trace implies.
type model struct {
	open              bool
	submitted, failed map[string]bool
}

func (m *model) feasible(a Action) bool {
	switch a.Step {
	case StepEvaluate, StepCrash:
		return !m.open
	case StepApply:
		return m.open
	case StepTick:
		return true
	}
	switch e := a.Event; e.Kind {
	case fault.Submit:
		return !m.submitted[e.Job.Name]
	case fault.Round:
		return !m.open
	case fault.Recover:
		return m.failed[e.Node]
	default:
		return !m.failed[e.Node]
	}
}

func (m *model) apply(a Action) {
	switch e := a.Event; {
	case a.Step == StepEvaluate:
		m.open = true
	case a.Step == StepApply:
		m.open = false
	case a.Step != StepEvent:
	case e.Kind == fault.Submit:
		m.submitted[e.Job.Name] = true
	case e.Kind == fault.Fail:
		m.failed[e.Node] = true
	case e.Kind == fault.Recover:
		delete(m.failed, e.Node)
	}
}

// checkFeasibleWalk applies the trace step by step and requires, before
// every step, that the instance's feasible set over the alphabet — and its
// verdict on a round event — match the model's.
func checkFeasibleWalk(t *testing.T, u *Universe, text string) {
	t.Helper()
	in, err := NewInstance(u, MutNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	alpha := u.alphabet()
	m := &model{submitted: map[string]bool{}, failed: map[string]bool{}}
	for step, a := range mustTrace(t, text) {
		set := in.feasible(alpha)
		for k, cand := range alpha {
			if got, want := set&(1<<k) != 0, m.feasible(cand); got != want {
				t.Fatalf("step %d: feasible(%s) = %t, model says %t", step, cand, got, want)
			}
		}
		if round := event(fault.Round, ""); in.Feasible(round) != m.feasible(round) {
			t.Fatalf("step %d: Feasible(round) = %t, model says %t", step, in.Feasible(round), m.feasible(round))
		}
		if err := in.Apply(a); err != nil {
			t.Fatal(err)
		}
		m.apply(a)
	}
}
