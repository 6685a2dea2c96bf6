package mc

import (
	"strings"
	"testing"
)

// TestServiceMatchesBatch pins the batch contract inside the checker: batch
// scheduling is a service that only sees ticks, and durability is never a
// scheduling input. A trace of bare evaluate/apply rounds and the same trace
// with a checkpoint crash after every round — what a durable driver adds —
// must reach byte-identical grid and scheduler canonical states,
// single-domain and sharded.
func TestServiceMatchesBatch(t *testing.T) {
	bare := mustTrace(t, "submit:j1; submit:j2; submit:j3; evaluate; apply; fail:n2; tick; evaluate; apply; revoke:n1:40-120; recover:n2; evaluate; apply")
	var ticked []Action
	for _, a := range bare {
		ticked = append(ticked, a)
		if a.Step == StepApply {
			ticked = append(ticked, Action{Step: StepCrash})
		}
	}
	for _, u := range []*Universe{Default(), TwoShard()} {
		inB, err := Replay(u, MutNone, bare, nil)
		if err != nil {
			t.Fatalf("shards=%d bare: %v", u.Shards, err)
		}
		inT, err := Replay(u, MutNone, ticked, nil)
		if err != nil {
			t.Fatalf("shards=%d ticked: %v", u.Shards, err)
		}
		var sb, st strings.Builder
		inB.grid.CanonicalState(&sb)
		inB.sched.CanonicalState(&sb)
		inT.grid.CanonicalState(&st)
		inT.sched.CanonicalState(&st)
		if sb.String() != st.String() {
			t.Fatalf("shards=%d: ticked replay diverged from bare rounds:\n--- bare ---\n%s\n--- ticked ---\n%s",
				u.Shards, sb.String(), st.String())
		}
	}
}

// TestServiceScriptRoundTrip pins a trace's text as its exact inverse over
// the round steps, their rejection of arguments, and the retired enqueue
// action.
func TestServiceScriptRoundTrip(t *testing.T) {
	const text = "submit:j1\nevaluate\nfail:n2\napply\nrecover:n2\ntick\nround\nevaluate\napply\n"
	tr, err := parseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := script(tr); got != text {
		t.Fatalf("round trip changed the script:\n got %q\nwant %q", got, text)
	}
	for _, bad := range []string{"enqueue", "evaluate j1", "apply:n1"} {
		if _, err := parseScript(bad); err == nil {
			t.Errorf("parseScript(%q) accepted", bad)
		}
	}
}

// TestServiceFeasibleMatchesEnabled cross-checks the frontier metadata
// against the live instance on a Tiny walk covering every round action: the
// explorer's metadata-derived action set
// must agree with Instance.Feasible at every step.
func TestServiceFeasibleMatchesEnabled(t *testing.T) {
	checkFeasibleWalk(t, Tiny(), "submit:j1; evaluate; fail:n2; apply; recover:n2; evaluate; apply; tick; submit:j2; round")
}

// TestCrashIsIdentity pins the crash action's contract directly: a trace with
// crashes interleaved at every committed boundary reaches exactly the hash of
// the same trace with the crashes removed — durability round-trips through the
// checkpoint codec without observable effect — and crash stays infeasible
// inside an open round.
func TestCrashIsIdentity(t *testing.T) {
	withCrashes := mustTrace(t, "crash; submit:j1; crash; submit:j2; crash; evaluate; apply; crash; fail:n2; crash; tick; recover:n2; crash; evaluate; apply; crash")
	var without []Action
	for _, a := range withCrashes {
		if a.Step != StepCrash {
			without = append(without, a)
		}
	}
	inC, err := Replay(Tiny(), MutNone, withCrashes, nil)
	if err != nil {
		t.Fatal(err)
	}
	inP, err := Replay(Tiny(), MutNone, without, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inC.Hash() != inP.Hash() {
		t.Fatalf("crash is not identity: hash %016x with crashes, %016x without",
			inC.Hash(), inP.Hash())
	}

	if err := inC.Apply(Action{Step: StepEvaluate}); err != nil {
		t.Fatal(err)
	}
	if inC.Feasible(Action{Step: StepCrash}) {
		t.Fatal("crash feasible inside an open round")
	}
}

// TestServiceDrain pins the liveness machinery around the job queue: a trace
// that leaves an open round and failed nodes must still drain to an empty
// queue through fault-free tick rounds.
func TestServiceDrain(t *testing.T) {
	trace := mustTrace(t, "submit:j1; submit:j2; evaluate; fail:n1; fail:n2")
	in, err := Replay(Tiny(), MutNone, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = in.Drain(0)
	if err == nil || !strings.Contains(err.Error(), "liveness violated") {
		t.Fatalf("Drain(0) = %v, want liveness violation", err)
	}
	in2, err := Replay(Tiny(), MutNone, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.Drain(24); err != nil {
		t.Fatal(err)
	}
	if n := in2.sched.QueueLength(); n != 0 {
		t.Fatalf("queue not drained: %d jobs left", n)
	}
}
