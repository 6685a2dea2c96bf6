package durable

import (
	"testing"

	"ecosched/internal/metrics"
)

// TestDisabledMetricsZeroAllocs pins the observability-off contract the
// journal hot path relies on: a nil registry resolves to a holder of nil
// instruments, and every observation on it is a no-op performing zero
// allocations, so running with metrics disabled costs nothing beyond the
// branch.
func TestDisabledMetricsZeroAllocs(t *testing.T) {
	m := newDurableMetrics(nil)
	if *m != (durableMetrics{}) {
		t.Fatal("nil registry produced live instruments")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.appended(128)
		m.checkpoints.Inc()
		m.replayStarted(true)
		m.replayed.Inc()
		m.tornBytes.Add(16)
	}); allocs != 0 {
		t.Fatalf("disabled durable metrics allocate %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = newDurableMetrics(nil)
	}); allocs != 0 {
		t.Fatalf("nil-registry resolution allocates %.1f allocs/op, want 0", allocs)
	}
	// Enabled instruments observe without allocating too — resolution is the
	// only allocating step.
	em := newDurableMetrics(metrics.New())
	if allocs := testing.AllocsPerRun(1000, func() {
		em.appended(128)
		em.replayed.Inc()
	}); allocs != 0 {
		t.Fatalf("enabled durable metrics allocate %.1f allocs/op, want 0", allocs)
	}
}
