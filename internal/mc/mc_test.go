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

// TestParseScriptErrors pins the script reader's rejection of malformed
// lines — a corrupted counterexample artifact must fail loudly, not replay
// something else — and the replay's rejection of names the universe lacks.
func TestParseScriptErrors(t *testing.T) {
	for _, script := range []string{
		"launch:j1",       // unknown keyword
		"submit",          // missing job
		"submit j1",       // the retired space-separated form
		"fail",            // missing node
		"revoke:n1",       // missing span
		"revoke:n1:50-50", // empty span
		"plan",            // retired keyword
		"event",           // a step's name, not an action
		"evaluate:now",    // stray argument
		"tick tock",       // stray argument
		"round:n1",        // stray argument
		"submit:j1:twice", // stray argument
		"fail@-5:n1",      // negative time
		"recover@xx:n1",   // bad time
	} {
		if _, err := parseScript(script); err == nil {
			t.Errorf("parseScript(%q) accepted", script)
		}
	}
	u := Tiny()
	in, err := NewInstance(u, MutNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, script := range []string{"submit:ghost", "fail:n9", "recover:n9", "revoke:n9:40-120"} {
		tr := mustTrace(t, script)
		if in.Feasible(tr[0]) {
			t.Errorf("%q feasible in %d-node universe", script, len(u.Nodes))
		}
		if _, err := Replay(u, MutNone, tr, nil); err == nil {
			t.Errorf("%q replayed", script)
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

// TestSessionCompatibleShapes pins the compatibility predicate: a trace is
// session-shaped exactly when its evaluate/apply pairs are unbroken.
func TestSessionCompatibleShapes(t *testing.T) {
	for shape, want := range map[string]bool{
		"submit:j1; fail:n1; evaluate; apply":                  true,
		"submit:j1; evaluate; apply; fail:n1; evaluate; apply": true,
		"evaluate; apply; submit:j1; evaluate; apply":          true,
		"submit:j1; evaluate; apply; fail:n1":                  true,
		"submit:j1; fail:n1; round":                            true,
		"submit:j1; tick; evaluate; apply":                     false,
		"submit:j1; evaluate; apply; crash; evaluate; apply":   false,
		"submit:j1; evaluate; fail:n1; apply":                  false,
		"submit:j1; evaluate; round; apply":                    false,
		"submit:j1; evaluate":                                  false,
		"apply":                                                false,
	} {
		if got := SessionCompatible(mustTrace(t, shape)); got != want {
			t.Errorf("%s: SessionCompatible = %t, want %t", shape, got, want)
		}
	}
}

// TestDrainReportsStuckJob drives Drain into its liveness-failure branch
// with a zero-iteration budget: the submitted job cannot leave the queue,
// so the drain must report it stuck.
func TestDrainReportsStuckJob(t *testing.T) {
	// Evaluate first, then crash every node: the open round's windows are
	// all stale, so closing it postpones the job back into the queue, and
	// a zero-round budget cannot drain it.
	stuck := mustTrace(t, "submit:j1; evaluate; fail:n1; fail:n2")
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

// TestFeasibleMatchesEnabled cross-checks the instance's feasibility — the
// set the explorer enumerates successors from — against a model of what a
// walk implies (submitted jobs, failed nodes, an open round) at every step.
func TestFeasibleMatchesEnabled(t *testing.T) {
	checkFeasibleWalk(t, Default(), "submit:j2; evaluate; fail:n3; apply; submit:j1; tick; revoke:n1:40-120; evaluate")
}
