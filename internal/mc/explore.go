package mc

import (
	"fmt"

	"ecosched/internal/fault"
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

// node is one frontier entry: where its trace lies in the sweep's trace
// arena, and the set of alphabet actions feasible at its state (bit k for
// action k), read off the live instance when the state was discovered, so
// successor enumeration needs no replay of the parent. A node holds no
// pointer, so a large frontier costs the collector nothing to mark.
type node struct {
	at, depth int
	enabled   uint64
}

// alphabet lists every action the explorer takes on u: the submits, the
// harness steps, then each node's fail, revoke and recover. Successors are
// enumerated in this order, so exploration is deterministic.
func (u *Universe) alphabet() []Action {
	var out []Action
	for j := range u.Jobs {
		out = append(out, u.submit(j))
	}
	out = append(out, Action{Step: StepEvaluate}, Action{Step: StepCrash},
		Action{Step: StepApply}, Action{Step: StepTick})
	for i, n := range u.Nodes {
		out = append(out, event(fault.Fail, n.Name), u.revoke(i), event(fault.Recover, n.Name))
	}
	return out
}

// feasible returns the set of alpha's actions feasible in the instance's
// state, bit k for alpha[k].
func (in *Instance) feasible(alpha []Action) uint64 {
	var set uint64
	for k, a := range alpha {
		if in.Feasible(a) {
			set |= 1 << k
		}
	}
	return set
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
	alpha := u.alphabet()
	frontier := []node{{enabled: root.feasible(alpha)}}
	// arena holds every frontier trace back to back, as alphabet indices;
	// path spells one into buf, which a counterexample copies.
	var arena []uint8
	buf := make([]Action, 0, opts.MaxDepth+1)
	path := func(n node, dst []Action) []Action {
		for _, k := range arena[n.at : n.at+n.depth] {
			dst = append(dst, alpha[k])
		}
		return dst
	}
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
					if cex := checkLiveness(u, opts, path(n, nil)); cex != nil {
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
		for k := range alpha {
			if n.enabled&(1<<k) == 0 {
				continue
			}
			trace := append(path(n, buf[:0]), alpha[k])
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
			frontier = append(frontier, node{at: len(arena), depth: n.depth + 1, enabled: in.feasible(alpha)})
			arena = append(append(arena, arena[n.at:n.at+n.depth]...), uint8(k))
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
