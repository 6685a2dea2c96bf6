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
	bare := []Action{
		{Kind: ActSubmit, Arg: 0}, {Kind: ActSubmit, Arg: 1}, {Kind: ActSubmit, Arg: 2},
		{Kind: ActEvaluate}, {Kind: ActApply},
		{Kind: ActFail, Arg: 1}, {Kind: ActTick},
		{Kind: ActEvaluate}, {Kind: ActApply},
		{Kind: ActRevoke, Arg: 0}, {Kind: ActRecover, Arg: 1},
		{Kind: ActEvaluate}, {Kind: ActApply},
	}
	var ticked []Action
	for _, a := range bare {
		ticked = append(ticked, a)
		if a.Kind == ActApply {
			ticked = append(ticked, Action{Kind: ActCrash})
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

// TestServiceScriptRoundTrip pins Render/ParseScript as inverses over the
// round action kinds, their rejection of arguments, and the retired enqueue
// action.
func TestServiceScriptRoundTrip(t *testing.T) {
	u := Tiny()
	trace := []Action{
		{Kind: ActSubmit, Arg: 0}, {Kind: ActEvaluate},
		{Kind: ActFail, Arg: 1}, {Kind: ActApply}, {Kind: ActRecover, Arg: 1},
		{Kind: ActTick}, {Kind: ActEvaluate}, {Kind: ActApply},
	}
	script := RenderTrace(u, trace)
	back, err := ParseScript(u, script)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(trace) {
		t.Fatalf("round trip changed length: %d -> %d", len(trace), len(back))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Fatalf("action %d: %v -> %v", i, trace[i], back[i])
		}
	}
	for _, bad := range []string{"enqueue", "evaluate j1", "apply n1"} {
		if _, err := ParseScript(u, bad); err == nil {
			t.Errorf("ParseScript(%q) accepted", bad)
		}
	}
}

// TestServiceFeasibleMatchesEnabled cross-checks the frontier metadata
// against the live instance on a Tiny walk covering every round action: the
// explorer's metadata-derived action set
// must agree with Instance.Feasible at every step.
func TestServiceFeasibleMatchesEnabled(t *testing.T) {
	u := Tiny()
	trace := []Action{
		{Kind: ActSubmit, Arg: 0}, {Kind: ActEvaluate},
		{Kind: ActFail, Arg: 1}, {Kind: ActApply},
		{Kind: ActRecover, Arg: 1}, {Kind: ActEvaluate}, {Kind: ActApply},
		{Kind: ActTick}, {Kind: ActSubmit, Arg: 1},
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

// TestCrashIsIdentity pins the crash action's contract directly: a trace with
// crashes interleaved at every committed boundary reaches exactly the hash of
// the same trace with the crashes removed — durability round-trips through the
// checkpoint codec without observable effect — and crash stays infeasible
// inside an open round.
func TestCrashIsIdentity(t *testing.T) {
	withCrashes := []Action{
		{Kind: ActCrash},
		{Kind: ActSubmit, Arg: 0}, {Kind: ActCrash},
		{Kind: ActSubmit, Arg: 1}, {Kind: ActCrash},
		{Kind: ActEvaluate}, {Kind: ActApply}, {Kind: ActCrash},
		{Kind: ActFail, Arg: 1}, {Kind: ActCrash},
		{Kind: ActTick}, {Kind: ActRecover, Arg: 1}, {Kind: ActCrash},
		{Kind: ActEvaluate}, {Kind: ActApply}, {Kind: ActCrash},
	}
	var without []Action
	for _, a := range withCrashes {
		if a.Kind != ActCrash {
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

	if err := inC.Apply(Action{Kind: ActEvaluate}); err != nil {
		t.Fatal(err)
	}
	if inC.Feasible(Action{Kind: ActCrash}) {
		t.Fatal("crash feasible inside an open round")
	}
}

// TestServiceDrain pins the liveness machinery around the job queue: a trace
// that leaves an open round and failed nodes must still drain to an empty
// queue through fault-free tick rounds.
func TestServiceDrain(t *testing.T) {
	trace := []Action{
		{Kind: ActSubmit, Arg: 0}, {Kind: ActSubmit, Arg: 1},
		{Kind: ActEvaluate}, {Kind: ActFail, Arg: 0}, {Kind: ActFail, Arg: 1},
	}
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
