package mc

import (
	"fmt"
	"slices"
	"strings"
)

// Property names the violated property class of a counterexample.
type Property string

const (
	// PropSafety is an audit invariant breach or scheduler error.
	PropSafety Property = "safety"
	// PropLiveness is a job stuck in the queue after the fault-free drain.
	PropLiveness Property = "liveness"
	// PropDeterminism is a trace whose re-execution diverges.
	PropDeterminism Property = "determinism"
)

// Counterexample is a violating trace, greedily minimized, with everything
// needed to reproduce it outside the explorer.
type Counterexample struct {
	Property Property
	// Detail is the violation message from the first failing probe.
	Detail string
	// Trace is the minimized action sequence.
	Trace []Action
	// Minimized reports whether minimization ran (it is skipped for
	// determinism violations, where a shorter trace proves nothing about
	// the original divergence).
	Minimized bool
}

// newCounterexample minimizes the violating trace (for safety and liveness)
// and packages it.
func newCounterexample(u *Universe, opts Options, prop Property, detail string, trace []Action) *Counterexample {
	cex := &Counterexample{Property: prop, Detail: detail, Trace: slices.Clone(trace)}
	if prop == PropDeterminism {
		return cex
	}
	cex.Trace = minimizeTrace(u, opts, prop, trace)
	cex.Minimized = true
	// Re-derive the detail from the minimized trace: the shorter run may
	// trip the property with a different message.
	if detail, ok := reproduces(u, opts, prop, cex.Trace); ok {
		cex.Detail = detail
	}
	return cex
}

// reproduces replays the candidate leniently and reports whether it still
// violates the property, with the violation message.
func reproduces(u *Universe, opts Options, prop Property, trace []Action) (string, bool) {
	in, err := replayLenient(u, opts.Mutation, trace)
	if err != nil {
		// Any replay failure is a safety-class violation; for a liveness
		// counterexample a candidate that already breaks safety is not
		// the same bug.
		return err.Error(), prop == PropSafety
	}
	if prop == PropLiveness {
		if err := in.Drain(drainIterations); err != nil {
			return err.Error(), true
		}
	}
	return "", false
}

// minimizeTrace greedily deletes actions while the violation reproduces:
// repeatedly try removing each action (skip-semantics keep the rest
// meaningful) and restart from the shorter trace on success, until no
// single deletion preserves the failure. The result is 1-minimal — every
// remaining action is necessary.
func minimizeTrace(u *Universe, opts Options, prop Property, trace []Action) []Action {
	cur := trace
	for {
		shrunk := false
		for i := 0; i < len(cur); i++ {
			cand := make([]Action, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if _, ok := reproduces(u, opts, prop, cand); ok {
				cur = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// Script renders the counterexample as a replayable artifact: a commented
// header with the property and violation, then the trace, one action per
// line — each event in fault's text form, untimed.
func (c *Counterexample) Script() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# property: %s\n", c.Property)
	fmt.Fprintf(&b, "# violation: %s\n", c.Detail)
	fmt.Fprintf(&b, "# minimized: %t\n", c.Minimized)
	b.WriteString(script(c.Trace))
	return b.String()
}
