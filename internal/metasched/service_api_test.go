package metasched_test

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/metasched"
)

// TestServiceConfigValidate pins the constructor's error path: a nil
// scheduler is rejected.
func TestServiceConfigValidate(t *testing.T) {
	if _, err := metasched.NewService(nil, metasched.ServiceConfig{}); err == nil {
		t.Fatal("NewService(nil) accepted a nil scheduler")
	}
}

// TestServiceAccessors covers the read-side API on a live round: the wrapped
// scheduler, the deprecated QueueDepth shim (always 0: the job queue is the
// only queue), and the plan's canonical serialization matching the open
// round's "chosen" lines.
func TestServiceAccessors(t *testing.T) {
	h := newStaleHarness(t, 1)
	if h.svc.Scheduler() != h.sched {
		t.Fatal("Scheduler() did not return the wrapped scheduler")
	}
	if d := h.svc.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth() = %d with a job queued, want the shim's 0", d)
	}
	r, err := h.svc.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evaluate(); err != nil {
		t.Fatal(err)
	}
	p := r.Plan()
	if len(p.Choices) != 1 || p.Choices[0].Job.Name != "j1" {
		t.Fatalf("plan chose %v, want j1 alone", p.Choices)
	}
	var b strings.Builder
	p.CanonicalState(&b)
	want := fmt.Sprintf("chosen j1 -> %v\n", p.Choices[0].Window)
	if b.String() != want {
		t.Fatalf("Plan.CanonicalState = %q, want %q", b.String(), want)
	}
	b.Reset()
	r.CanonicalState(&b)
	for _, line := range []string{"iteration open=", "batched j1", "chosen j1 -> "} {
		if !strings.Contains(b.String(), line) {
			t.Fatalf("Round.CanonicalState missing %q:\n%s", line, b.String())
		}
	}
	if err := r.Apply(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanNilViews pins the nil-plan contract every accessor shares: a nil
// *Plan is never stale and serializes to nothing.
func TestPlanNilViews(t *testing.T) {
	var p *metasched.Plan
	if p.Stale(42) {
		t.Fatal("nil plan reported stale")
	}
	var b strings.Builder
	p.CanonicalState(&b)
	if b.Len() != 0 {
		t.Fatalf("nil plan serialized to %q", b.String())
	}
}
