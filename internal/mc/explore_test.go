package mc

import (
	"strings"
	"testing"

	"ecosched/internal/fault"
)

// TestExploreTinyClean sweeps the tiny universe with all properties on: the
// schedule/commit protocol must survive every interleaving of submits,
// evaluate/apply rounds, crashes, ticks, failures, recoveries, and
// revocations reachable within the depth bound, with zero safety, liveness,
// or determinism violations.
func TestExploreTinyClean(t *testing.T) {
	depth, states := 6, 40000
	if testing.Short() {
		depth, states = 4, 4000
	}
	res, err := Explore(Tiny(), Options{
		MaxDepth:  depth,
		MaxStates: states,
		Liveness:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex != nil {
		t.Fatalf("violation in clean universe:\n%s", res.Cex.Script())
	}
	if res.States < 100 || res.Transitions <= res.States {
		t.Fatalf("implausibly small sweep: %+v", res)
	}
	if res.DeterminismChecks == 0 {
		t.Fatal("determinism sampling never ran")
	}
	if res.LivenessChecks == 0 && !res.Truncated {
		t.Fatal("liveness sampling never ran on a full sweep")
	}
	t.Logf("tiny sweep: %d states, %d transitions, deepest %d, truncated %t, liveness %d, determinism %d",
		res.States, res.Transitions, res.Deepest, res.Truncated, res.LivenessChecks, res.DeterminismChecks)
}

// TestExploreDefaultUniverseScale is the acceptance sweep: the default CI
// universe must yield at least 100k distinct canonical states within the CI
// bounds, all clean. Skipped under -short (it is the expensive test of the
// package).
func TestExploreDefaultUniverseScale(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance sweep is long; run without -short")
	}
	res, err := Explore(Default(), Options{MaxDepth: 8, MaxStates: 120000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex != nil {
		t.Fatalf("violation in clean universe:\n%s", res.Cex.Script())
	}
	if res.States < 100000 {
		t.Fatalf("acceptance floor missed: %d distinct states, want >= 100000", res.States)
	}
	t.Logf("default sweep: %d states, %d transitions, deepest %d, truncated %t",
		res.States, res.Transitions, res.Deepest, res.Truncated)
}

// TestScriptRoundTrip pins a trace's text and the script reader as inverses
// over every action the explorer enumerates, which is what makes printed
// counterexamples replayable.
func TestScriptRoundTrip(t *testing.T) {
	tr := Default().alphabet()
	back, err := parseScript(script(tr) + "\n# trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("round trip changed length: %d -> %d", len(tr), len(back))
	}
	for i := range tr {
		if back[i].String() != tr[i].String() || back[i].Step == StepEvent && back[i].Event.At != fault.Untimed {
			t.Fatalf("action %d: %v -> %v", i, tr[i], back[i])
		}
	}
}

// TestReplayDeterministic pins the determinism property directly: replaying
// the same trace twice reaches the same canonical hash.
func TestReplayDeterministic(t *testing.T) {
	u := Default()
	trace := mustTrace(t, "submit:j1; submit:j2; evaluate; fail:n1; apply; tick; recover:n1; evaluate; apply")
	a, err := Replay(u, MutNone, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(u, MutNone, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("replay diverged: %016x != %016x", a.Hash(), b.Hash())
	}
	var sa, sb strings.Builder
	a.grid.CanonicalState(&sa)
	b.grid.CanonicalState(&sb)
	if sa.String() != sb.String() {
		t.Fatalf("grid canonical state diverged:\n%s\nvs\n%s", sa.String(), sb.String())
	}
}
