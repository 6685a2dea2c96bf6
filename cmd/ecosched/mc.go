package main

import (
	"fmt"
	"os"

	"ecosched/internal/mc"
	"ecosched/internal/metrics"
)

// runMC runs the bounded exhaustive model checker over a small universe.
// A clean sweep prints the state-space statistics; a property violation
// prints the minimized replayable counterexample (and writes it to cexPath
// when given) and fails the command. With a seeded mutation the expectation
// inverts: the sweep must find the planted bug, and a clean pass is the
// failure. The sweep's counts go to reg (nil records nothing) as mc/* gauges.
func runMC(universe string, depth, states int, mutation, cexPath string, liveness bool, reg *metrics.Registry) error {
	var u *mc.Universe
	switch universe {
	case "tiny":
		u = mc.Tiny()
	case "", "default":
		u = mc.Default()
	case "2shard":
		u = mc.TwoShard()
	default:
		return fmt.Errorf("unknown universe %q (want tiny, default or 2shard)", universe)
	}
	mut, err := mc.ParseMutation(mutation)
	if err != nil {
		return err
	}
	fmt.Printf("model checker: universe=%s nodes=%d jobs=%d depth<=%d states<=%d liveness=%t mutation=%s\n",
		universe, len(u.Nodes), len(u.Jobs), depth, states, liveness, mut)
	res, err := mc.Explore(u, mc.Options{
		MaxDepth:  depth,
		MaxStates: states,
		Liveness:  liveness,
		Mutation:  mut,
		Progress: func(states, transitions int) {
			fmt.Printf("  ... %d states / %d transitions\n", states, transitions)
		},
	})
	if err != nil {
		return err
	}
	truncated, cex := 0, 0
	if res.Truncated {
		truncated = 1
	}
	if res.Cex != nil {
		cex = 1
	}
	for name, v := range map[string]int{
		"mc/states": res.States, "mc/transitions": res.Transitions, "mc/deepest": res.Deepest,
		"mc/liveness_drains": res.LivenessChecks, "mc/determinism_checks": res.DeterminismChecks,
		"mc/truncated": truncated, "mc/counterexamples": cex,
	} {
		reg.Gauge(name).Set(int64(v))
	}
	fmt.Printf("explored %d distinct states over %d transitions (deepest %d, truncated %t)\n",
		res.States, res.Transitions, res.Deepest, res.Truncated)
	fmt.Printf("property probes: liveness drains=%d determinism re-executions=%d\n",
		res.LivenessChecks, res.DeterminismChecks)

	if res.Cex == nil {
		if mut != mc.MutNone {
			return fmt.Errorf("seeded mutation %s survived the sweep undetected", mut)
		}
		fmt.Println(verdict(res, liveness))
		return nil
	}
	script := res.Cex.Script()
	fmt.Printf("counterexample (%s):\n%s", res.Cex.Property, script)
	if cexPath != "" {
		if err := os.WriteFile(cexPath, []byte(script), 0o644); err != nil {
			return err
		}
		fmt.Printf("counterexample written to %s\n", cexPath)
	}
	return fmt.Errorf("%s violated: %s", res.Cex.Property, res.Cex.Detail)
}

// verdict states what a clean sweep established, and no more: a sweep cut
// short by the state bound covered only the interleavings it reached, and
// liveness holds only when at least one leaf was drained.
func verdict(res *mc.Result, liveness bool) string {
	props := "safety, determinism"
	if res.LivenessChecks > 0 {
		props += ", liveness"
	}
	v := "all interleavings clean: " + props + " hold"
	if res.Truncated {
		v = fmt.Sprintf("bounded sweep clean: %s hold up to the state bound of %d states, not over every interleaving", props, res.States)
	}
	switch {
	case res.LivenessChecks == 0 && liveness:
		v += "; liveness unprobed: no leaf drained"
	case res.LivenessChecks == 0:
		v += "; liveness not checked"
	}
	return v
}
