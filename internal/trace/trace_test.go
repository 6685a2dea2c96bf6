package trace

import (
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(10)
	r.BeginIteration(1, 100)
	r.Record(SearchStarted, "", "AMP over %d slots", 42)
	r.Record(WindowFound, "job1", "W[0,50)")
	r.Record(Committed, "job1", "booked")
	if len(r.Events()) != 3 {
		t.Fatalf("retained %d events, want 3", len(r.Events()))
	}
	events := r.Events()
	if events[0].Kind != SearchStarted || events[2].Kind != Committed {
		t.Error("event order wrong")
	}
	if events[0].Iteration != 1 || events[0].Now != 100 {
		t.Error("iteration context not stamped")
	}
	if events[0].Seq != 1 || events[1].Seq >= events[2].Seq {
		t.Error("sequence numbers not monotone from 1")
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(WindowFound, "j", "event %d", i)
	}
	if len(r.Events()) != 3 {
		t.Fatalf("retained %d events, want 3", len(r.Events()))
	}
	events := r.Events()
	if events[0].Detail != "event 2" || events[2].Detail != "event 4" {
		t.Errorf("ring kept wrong events: %v", events)
	}
	// Sequence numbers count the overwritten events too.
	if events[2].Seq != 5 {
		t.Errorf("newest seq %d, want 5", events[2].Seq)
	}
}

func TestRecorderDisabled(t *testing.T) {
	r := NewRecorder(0)
	r.BeginIteration(1, 0)
	r.Record(Committed, "j", "x")
	if len(r.Events()) != 0 || r.Events() != nil {
		t.Error("disabled recorder must retain nothing")
	}
	var nilRec *Recorder
	nilRec.Record(Committed, "j", "x") // must not panic
	nilRec.BeginIteration(1, 0)
	if len(nilRec.Events()) != 0 {
		t.Error("nil recorder must report empty")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{SearchStarted, WindowFound, SearchFailed, PlanChosen, Committed, Postponed, Dropped,
		Revoked, Recovered, Relaxed, PlanStale}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", int(k), s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should render numerically")
	}
}

func TestRenderAndEventString(t *testing.T) {
	r := NewRecorder(5)
	r.BeginIteration(2, 300)
	r.Record(PlanChosen, "", "T=%d C=%d", 100, 500)
	e := r.Events()[0]
	out := e.String()
	for _, frag := range []string{"it=2", "t=300", "plan-chosen", "T=100 C=500"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q in %q", frag, out)
		}
	}
	if !strings.Contains(out, "-") { // empty job renders as "-"
		t.Errorf("event string: %q", out)
	}
}
