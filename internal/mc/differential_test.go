package mc

import (
	"testing"
)

// enumerateCompatible walks the explorer's own alphabet in the explorer's
// order, enumerating from each replayed state the actions Instance.Feasible
// allows — so the enumerated traces are exactly explorer traces — and
// collects every session-compatible trace up to the depth bound, capped at
// limit.
func enumerateCompatible(u *Universe, maxDepth, limit int) [][]Action {
	alpha := u.alphabet()
	var out [][]Action
	var walk func(trace []Action)
	walk = func(trace []Action) {
		in, err := Replay(u, MutNone, trace, nil)
		if err != nil || len(out) >= limit || len(trace) >= maxDepth {
			return
		}
		for _, a := range alpha {
			if !in.Feasible(a) || a.Step == StepTick || a.Step == StepCrash {
				continue // tick and crash are never compatible: prune the subtree
			}
			next := append(trace[:len(trace):len(trace)], a)
			if SessionCompatible(next) {
				out = append(out, next)
				if len(out) >= limit {
					return
				}
			}
			walk(next)
		}
	}
	walk(nil)
	return out
}

// TestDifferentialSession replays every session-compatible explorer trace
// (strict evaluate/apply pairs, events between rounds) both through the
// model checker's instance and through a fault.Session applying the same
// events, each pair as one round event, and requires byte-identical
// transcripts. This pins the explorer to the production fault driver: the
// checker is exploring the real protocol, not a private re-implementation.
func TestDifferentialSession(t *testing.T) {
	u := Default()
	depth, limit := 7, 400
	if testing.Short() {
		depth, limit = 5, 60
	}
	traces := enumerateCompatible(u, depth, limit)
	if len(traces) < 30 {
		t.Fatalf("only %d compatible traces enumerated — generator broken", len(traces))
	}
	for _, trace := range traces {
		mcT, sessT, err := SessionTranscripts(u, trace)
		if err != nil {
			t.Fatalf("trace %q: %v", script(trace), err)
		}
		if mcT != sessT {
			t.Fatalf("transcripts diverged for trace:\n%s--- explorer ---\n%s--- session ---\n%s",
				script(trace), mcT, sessT)
		}
	}
	t.Logf("%d compatible traces, all transcripts byte-identical", len(traces))
}
