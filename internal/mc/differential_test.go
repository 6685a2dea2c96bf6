package mc

import (
	"testing"
)

// enumerateCompatible walks the explorer's own transition alphabet
// (u.enabled / node.child, so the enumerated traces are exactly explorer
// traces) and collects every session-compatible trace up to the depth
// bound, capped at limit.
func enumerateCompatible(u *Universe, maxDepth, limit int) [][]Action {
	var out [][]Action
	var walk func(n node)
	walk = func(n node) {
		if len(out) >= limit || n.depth >= maxDepth {
			return
		}
		for _, a := range u.enabled(n) {
			trace := make([]Action, len(n.trace)+1)
			copy(trace, n.trace)
			trace[len(n.trace)] = a
			if a.Kind == ActTick || a.Kind == ActCrash {
				continue // never compatible, prune the whole subtree
			}
			if SessionCompatible(trace) {
				out = append(out, trace)
				if len(out) >= limit {
					return
				}
			}
			walk(n.child(a, trace))
		}
	}
	walk(node{})
	return out
}

// TestDifferentialSession replays every session-compatible explorer trace
// (submits up front, strict evaluate/apply pairs, faults between rounds)
// both through the model checker's instance and through a fault.Session
// driven by the recorded fault plan, and requires byte-identical
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
			t.Fatalf("trace %q: %v", RenderTrace(u, trace), err)
		}
		if mcT != sessT {
			t.Fatalf("transcripts diverged for trace:\n%s--- explorer ---\n%s--- session ---\n%s",
				RenderTrace(u, trace), mcT, sessT)
		}
	}
	t.Logf("%d compatible traces, all transcripts byte-identical", len(traces))
}
