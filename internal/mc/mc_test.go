package mc

import (
	"strings"
	"testing"

	"ecosched/internal/sim"
)

// TestParseMutation pins the CLI mutation spellings.
func TestParseMutation(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mutation
	}{
		{"", MutNone}, {"none", MutNone},
		{"double-refund", MutDoubleRefund}, {"resurrect", MutResurrect},
	} {
		got, err := ParseMutation(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMutation(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" || strings.Contains(got.String(), "mutation(") {
			t.Fatalf("mutation %d has no name", int(got))
		}
	}
	if _, err := ParseMutation("skip-refund"); err == nil {
		t.Fatal("unknown mutation accepted")
	}
}

// TestParseScriptErrors pins the script parser's rejection of malformed
// lines — a corrupted counterexample artifact must fail loudly, not replay
// something else.
func TestParseScriptErrors(t *testing.T) {
	u := Tiny()
	for _, script := range []string{
		"launch j1",       // unknown keyword
		"submit",          // missing job
		"submit ghost",    // unknown job
		"fail",            // missing node
		"fail n9",         // unknown node
		"recover n9",      // unknown node
		"revoke",          // missing node
		"plan",            // retired keyword
		"evaluate now",    // stray argument
		"tick tock",       // stray argument
		"submit j1 twice", // stray argument
	} {
		if _, err := ParseScript(u, script); err == nil {
			t.Errorf("ParseScript(%q) accepted", script)
		}
	}
}

// TestUniverseValidate pins the explorer's size guards.
func TestUniverseValidate(t *testing.T) {
	bad := func(mutate func(*Universe)) *Universe {
		u := Tiny()
		mutate(u)
		return u
	}
	for name, u := range map[string]*Universe{
		"no-nodes":   bad(func(u *Universe) { u.Nodes = nil }),
		"no-jobs":    bad(func(u *Universe) { u.Jobs = nil }),
		"too-many":   bad(func(u *Universe) { u.Jobs = make([]JobSpec, 9) }),
		"zero-step":  bad(func(u *Universe) { u.Step = 0 }),
		"bad-revoke": bad(func(u *Universe) { u.RevokeSpan = sim.Interval{Start: 9, End: 9} }),
	} {
		if err := u.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := NewInstance(u, MutNone, nil); err == nil {
			t.Errorf("%s instance built", name)
		}
		if _, err := Explore(u, Options{}); err == nil {
			t.Errorf("%s explored", name)
		}
	}
	if err := Tiny().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCompatibleShapes pins the compatibility predicate on every
// rejected shape.
func TestSessionCompatibleShapes(t *testing.T) {
	sub := Action{Kind: ActSubmit, Arg: 0}
	eval := Action{Kind: ActEvaluate}
	apply := Action{Kind: ActApply}
	fail := Action{Kind: ActFail, Arg: 0}
	for name, tc := range map[string]struct {
		trace []Action
		want  bool
	}{
		"canonical":             {[]Action{sub, fail, eval, apply}, true},
		"two-rounds":            {[]Action{sub, eval, apply, fail, eval, apply}, true},
		"submit-after-evaluate": {[]Action{eval, apply, sub, eval, apply}, false},
		"tick":                  {[]Action{sub, Action{Kind: ActTick}, eval, apply}, false},
		"crash":                 {[]Action{sub, eval, apply, Action{Kind: ActCrash}, eval, apply}, false},
		"fault-mid-round":       {[]Action{sub, eval, fail, apply}, false},
		"open-at-end":           {[]Action{sub, eval}, false},
		"trailing-fault":        {[]Action{sub, eval, apply, fail}, false},
		"no-round":              {[]Action{sub, fail}, false},
	} {
		if got := SessionCompatible(tc.trace); got != tc.want {
			t.Errorf("%s: SessionCompatible = %t, want %t", name, got, tc.want)
		}
	}
	if _, _, err := SessionTranscripts(Tiny(), []Action{sub}); err == nil {
		t.Fatal("incompatible trace accepted by SessionTranscripts")
	}
}

// TestDrainReportsStuckJob drives Drain into its liveness-failure branch
// with a zero-iteration budget: the submitted job cannot leave the queue,
// so the drain must report it stuck.
func TestDrainReportsStuckJob(t *testing.T) {
	// Evaluate first, then crash every node: the open round's windows are
	// all stale, so closing it postpones the job back into the queue, and
	// a zero-round budget cannot drain it.
	stuck := []Action{
		{Kind: ActSubmit, Arg: 0}, {Kind: ActEvaluate},
		{Kind: ActFail, Arg: 0}, {Kind: ActFail, Arg: 1},
	}
	in, err := Replay(Tiny(), MutNone, stuck, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = in.Drain(0)
	if err == nil || !strings.Contains(err.Error(), "liveness violated") {
		t.Fatalf("Drain(0) = %v, want liveness violation", err)
	}
	// With a real budget the same state drains clean (and closes the open
	// round plus recovers the failed nodes on the way).
	in2, err := Replay(Tiny(), MutNone, stuck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.Drain(24); err != nil {
		t.Fatal(err)
	}
}

// TestFeasibleMatchesEnabled cross-checks the frontier metadata against the
// live instance: on a random-ish walk the actions the explorer would
// enumerate from metadata are exactly the ones the instance deems feasible.
func TestFeasibleMatchesEnabled(t *testing.T) {
	u := Default()
	trace := []Action{
		{Kind: ActSubmit, Arg: 1}, {Kind: ActEvaluate}, {Kind: ActFail, Arg: 2},
		{Kind: ActApply}, {Kind: ActSubmit, Arg: 0}, {Kind: ActTick},
		{Kind: ActRevoke, Arg: 0}, {Kind: ActEvaluate},
	}
	in, err := NewInstance(u, MutNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := node{}
	all := func() []Action {
		var out []Action
		for j := range u.Jobs {
			out = append(out, Action{Kind: ActSubmit, Arg: j})
		}
		out = append(out, Action{Kind: ActTick},
			Action{Kind: ActEvaluate}, Action{Kind: ActApply}, Action{Kind: ActCrash})
		for i := range u.Nodes {
			out = append(out, Action{Kind: ActFail, Arg: i},
				Action{Kind: ActRecover, Arg: i}, Action{Kind: ActRevoke, Arg: i})
		}
		return out
	}
	for step, a := range trace {
		enabled := map[Action]bool{}
		for _, e := range u.enabled(n) {
			enabled[e] = true
		}
		for _, cand := range all() {
			if got := in.Feasible(cand); got != enabled[cand] {
				t.Fatalf("step %d: Feasible(%s) = %t, enabled = %t",
					step, cand.Render(u), got, enabled[cand])
			}
		}
		if err := in.Apply(a); err != nil {
			t.Fatal(err)
		}
		full := make([]Action, step+1)
		copy(full, trace[:step+1])
		n = n.child(a, full)
	}
}
