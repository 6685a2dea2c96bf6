package mc

import (
	"fmt"
)

// Options bounds and tunes an exploration sweep.
type Options struct {
	// MaxDepth bounds trace length; 0 means 8, and Explore rejects a
	// negative bound.
	MaxDepth int
	// MaxStates bounds the number of distinct canonical states; when the
	// bound is hit the sweep stops expanding and reports Truncated. 0
	// means 200000; negative is an error.
	MaxStates int
	// Liveness enables the bounded fault-free drain at depth-bound leaves,
	// sampled every livenessEvery leaves.
	Liveness bool
	// Mutation seeds a deliberate bug into the replay harness.
	Mutation Mutation
	// Progress, when non-nil, receives a callback every progressEvery
	// discovered states.
	Progress func(states, transitions int)
}

// The probe cadences of every sweep.
const (
	// livenessEvery samples every Nth depth-bound leaf for the drain.
	livenessEvery = 16
	// drainIterations bounds the fault-free drain of a liveness probe.
	drainIterations = 24
	// determinismEvery re-executes every Nth newly discovered state's trace
	// and compares hashes.
	determinismEvery = 512
	// progressEvery is the number of discovered states between Progress
	// callbacks.
	progressEvery = 10000
)

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 8
	}
	if o.MaxStates == 0 {
		o.MaxStates = 200000
	}
	return o
}

// Result summarizes a sweep.
type Result struct {
	// States is the number of distinct canonical states discovered
	// (including the initial state); Transitions counts every explored
	// edge, including ones into already-known states.
	States, Transitions int
	// Deepest is the longest trace expanded.
	Deepest int
	// Truncated reports the MaxStates bound stopped the sweep before the
	// frontier emptied.
	Truncated bool
	// LivenessChecks and DeterminismChecks count the property probes run.
	LivenessChecks, DeterminismChecks int
	// Cex is the first property violation found, minimized; nil means the
	// sweep finished clean.
	Cex *Counterexample
}

// node is one frontier entry. The metadata mirrors exactly the state bits
// that determine which actions are enabled, so successor enumeration needs
// no replay of the parent.
type node struct {
	trace     []Action
	depth     int
	open      bool
	submitted uint16
	failed    uint16
}

// enabled enumerates the feasible actions from the node's metadata, in a
// fixed order so exploration is deterministic.
func (u *Universe) enabled(n node) []Action {
	var out []Action
	for j := range u.Jobs {
		if n.submitted&(1<<j) == 0 {
			out = append(out, Action{Kind: ActSubmit, Arg: j})
		}
	}
	if n.open {
		out = append(out, Action{Kind: ActApply})
	} else {
		out = append(out, Action{Kind: ActEvaluate}, Action{Kind: ActCrash})
	}
	out = append(out, Action{Kind: ActTick})
	for i := range u.Nodes {
		if n.failed&(1<<i) != 0 {
			out = append(out, Action{Kind: ActRecover, Arg: i})
		} else {
			out = append(out, Action{Kind: ActFail, Arg: i},
				Action{Kind: ActRevoke, Arg: i})
		}
	}
	return out
}

// child derives the successor's metadata after action a.
func (n node) child(a Action, trace []Action) node {
	c := node{trace: trace, depth: n.depth + 1, open: n.open,
		submitted: n.submitted, failed: n.failed}
	switch a.Kind {
	case ActSubmit:
		c.submitted |= 1 << a.Arg
	case ActEvaluate:
		c.open = true
	case ActApply:
		c.open = false
	case ActFail:
		c.failed |= 1 << a.Arg
	case ActRecover:
		c.failed &^= 1 << a.Arg
	}
	return c
}

// Explore runs the bounded breadth-first sweep over the universe, checking
// the safety set on every transition, sampling determinism on discovery and
// liveness at the depth bound. It returns the first violation as a
// minimized counterexample; error is reserved for harness failures (an
// invalid universe), never for property violations.
func Explore(u *Universe, opts Options) (*Result, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxDepth < 0 || opts.MaxStates < 0 {
		return nil, fmt.Errorf("mc: negative bound (depth %d, states %d)", opts.MaxDepth, opts.MaxStates)
	}
	opts = opts.withDefaults()
	res := &Result{}

	root, err := NewInstance(u, opts.Mutation, nil)
	if err != nil {
		return nil, err
	}
	seen := map[uint64]struct{}{root.Hash(): {}}
	res.States = 1
	frontier := []node{{}}
	leaves := 0

	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		if n.depth > res.Deepest {
			res.Deepest = n.depth
		}
		if n.depth >= opts.MaxDepth {
			if opts.Liveness {
				leaves++
				if leaves%livenessEvery == 0 {
					res.LivenessChecks++
					if cex := checkLiveness(u, opts, n.trace); cex != nil {
						res.Cex = cex
						return res, nil
					}
				}
			}
			continue
		}
		if res.Truncated {
			continue
		}
		for _, a := range u.enabled(n) {
			trace := make([]Action, len(n.trace)+1)
			copy(trace, n.trace)
			trace[len(n.trace)] = a
			in, err := Replay(u, opts.Mutation, trace, nil)
			res.Transitions++
			if err != nil {
				res.Cex = newCounterexample(u, opts, PropSafety, err.Error(), trace)
				return res, nil
			}
			h := in.Hash()
			if _, ok := seen[h]; ok {
				continue
			}
			seen[h] = struct{}{}
			res.States++
			if opts.Progress != nil && res.States%progressEvery == 0 {
				opts.Progress(res.States, res.Transitions)
			}
			if res.States%determinismEvery == 0 {
				res.DeterminismChecks++
				again, err := Replay(u, opts.Mutation, trace, nil)
				if err != nil {
					res.Cex = newCounterexample(u, opts, PropDeterminism,
						fmt.Sprintf("re-execution failed: %v", err), trace)
					return res, nil
				}
				if again.Hash() != h {
					res.Cex = newCounterexample(u, opts, PropDeterminism,
						fmt.Sprintf("re-execution hash %016x != %016x", again.Hash(), h), trace)
					return res, nil
				}
			}
			if res.States >= opts.MaxStates {
				res.Truncated = true
				break
			}
			frontier = append(frontier, n.child(a, trace))
		}
	}
	return res, nil
}

// checkLiveness replays the leaf trace and runs the bounded fault-free
// drain; a stuck queue or a violation during the drain is a counterexample.
func checkLiveness(u *Universe, opts Options, trace []Action) *Counterexample {
	in, err := Replay(u, opts.Mutation, trace, nil)
	if err != nil {
		// The trace was safe when explored; failing now is a
		// determinism problem, not liveness.
		return newCounterexample(u, opts, PropDeterminism, err.Error(), trace)
	}
	if err := in.Drain(drainIterations); err != nil {
		return newCounterexample(u, opts, PropLiveness, err.Error(), trace)
	}
	return nil
}
