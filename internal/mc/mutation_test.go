package mc

import (
	"strings"
	"testing"
)

// TestMutationsCaught is the checker's self-test: with a deliberately
// seeded protocol bug the sweep must end in a violation, the counterexample
// must be minimized (1-minimal: removing any action loses the bug), and the
// printed script — its events read back by fault.ParseEvent, the parser
// plans use — must replay to the same violation: a model-checker finding
// is a deterministic regression input, not a one-off log line.
func TestMutationsCaught(t *testing.T) {
	cases := []struct {
		mutation Mutation
		// want is a substring of the violation the audit must attribute
		// the bug to.
		want string
		// maxLen bounds the minimized counterexample; 0 means unchecked.
		maxLen int
	}{
		{MutDoubleRefund, "negative", 0},
		{MutResurrect, "must only remove capacity", 0},
		// The applier that skips re-validation writes a stale plan's
		// placements blind; the checker must pin it within six actions
		// (submit, evaluate, a mutating event, apply — plus slack).
		{MutBlindApply, "safety violated", 6},
		// Recovery that drops the job queue's last entry diverges from the
		// pre-crash hash as soon as the queue is non-empty: submit then
		// crash is the whole counterexample.
		{MutLossyCrash, "crash recovery changed", 2},
	}
	for _, tc := range cases {
		t.Run(tc.mutation.String(), func(t *testing.T) {
			u := Tiny()
			opts := Options{MaxDepth: 6, MaxStates: 40000, Mutation: tc.mutation}
			res, err := Explore(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cex == nil {
				t.Fatalf("seeded mutation survived %d states / %d transitions undetected",
					res.States, res.Transitions)
			}
			cex := res.Cex
			if cex.Property != PropSafety {
				t.Fatalf("caught as %s, want safety: %s", cex.Property, cex.Detail)
			}
			if !strings.Contains(cex.Detail, tc.want) {
				t.Fatalf("violation %q does not mention %q", cex.Detail, tc.want)
			}
			if !cex.Minimized {
				t.Fatal("counterexample not minimized")
			}
			if tc.maxLen > 0 && len(cex.Trace) > tc.maxLen {
				t.Fatalf("counterexample has %d actions, want <= %d:\n%s",
					len(cex.Trace), tc.maxLen, cex.Script())
			}

			// 1-minimality: every remaining action is necessary.
			for i := range cex.Trace {
				cand := make([]Action, 0, len(cex.Trace)-1)
				cand = append(cand, cex.Trace[:i]...)
				cand = append(cand, cex.Trace[i+1:]...)
				if _, ok := reproduces(u, opts, PropSafety, cand); ok {
					t.Fatalf("dropping action %d (%s) still reproduces — not minimal",
						i, cex.Trace[i])
				}
			}

			// Replayability: parse the printed script back and replay it
			// under the same mutation; the violation must reproduce.
			text := cex.Script()
			if !strings.HasPrefix(text, "# property: safety\n") {
				t.Fatalf("script header does not name the property:\n%s", text)
			}
			parsed, err := parseScript(text)
			if err != nil {
				t.Fatalf("counterexample script does not parse: %v\n%s", err, text)
			}
			if got, want := script(parsed), script(cex.Trace); got != want {
				t.Fatalf("script round trip changed the trace:\n got %s\nwant %s", got, want)
			}
			if _, err := Replay(u, tc.mutation, parsed, nil); err == nil {
				t.Fatalf("replayed script did not reproduce the violation:\n%s", text)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replayed script failed differently: %v", err)
			}

			// The same trace on the unmutated protocol is clean: the
			// checker is pointing at the seeded bug, not a real one.
			if _, err := Replay(u, MutNone, parsed, nil); err != nil {
				t.Fatalf("counterexample trace violates the real protocol too: %v", err)
			}
			t.Logf("caught %s in %d states with %d-action counterexample:\n%s",
				tc.mutation, res.States, len(cex.Trace), text)
		})
	}
}
