package backfill

import (
	"testing"
	"testing/quick"

	"ecosched/internal/sim"
)

func TestNewCluster(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("zero-node cluster accepted")
	}
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.BusyIntervals() != 0 {
		t.Error("fresh cluster state wrong")
	}
}

func TestOccupyAndOverlapDetection(t *testing.T) {
	c, _ := NewCluster(2)
	if err := c.Occupy(0, 10, 20); err != nil {
		t.Fatalf("Occupy: %v", err)
	}
	if err := c.Occupy(0, 30, 10); err != nil {
		t.Fatalf("touching Occupy: %v", err)
	}
	if err := c.Occupy(0, 25, 10); err == nil {
		t.Error("overlap accepted")
	}
	if err := c.Occupy(0, 5, 10); err == nil {
		t.Error("overlap from the left accepted")
	}
	if err := c.Occupy(5, 0, 10); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Occupy(0, 0, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if c.BusyIntervals() != 2 {
		t.Errorf("BusyIntervals: got %d", c.BusyIntervals())
	}
}

func TestEarliestWindowIdleCluster(t *testing.T) {
	c, _ := NewCluster(3)
	start, nodes, err := c.EarliestWindow(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || len(nodes) != 2 {
		t.Errorf("idle cluster window: start=%v nodes=%v", start, nodes)
	}
}

func TestEarliestWindowSkipsBusy(t *testing.T) {
	c, _ := NewCluster(2)
	// Both nodes busy [0, 100); node 1 also busy [100, 150).
	if err := c.Occupy(0, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Occupy(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Occupy(1, 100, 50); err != nil {
		t.Fatal(err)
	}
	start, nodes, err := c.EarliestWindow(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if start != 150 {
		t.Errorf("window start: got %v, want 150", start)
	}
	if len(nodes) != 2 {
		t.Errorf("nodes: %v", nodes)
	}
	// A single node is free at 100 already.
	start1, _, err := c.EarliestWindow(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if start1 != 100 {
		t.Errorf("single-node window: got %v, want 100", start1)
	}
}

func TestEarliestWindowHole(t *testing.T) {
	c, _ := NewCluster(1)
	if err := c.Occupy(0, 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Occupy(0, 100, 50); err != nil {
		t.Fatal(err)
	}
	// A 40-tick job fits the [50, 100) hole.
	start, _, err := c.EarliestWindow(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if start != 50 {
		t.Errorf("hole fit: got %v, want 50", start)
	}
	// A 60-tick job does not; it must go after 150.
	start, _, err = c.EarliestWindow(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if start != 150 {
		t.Errorf("hole skip: got %v, want 150", start)
	}
}

func TestEarliestWindowInvalidArgs(t *testing.T) {
	c, _ := NewCluster(2)
	if _, _, err := c.EarliestWindow(0, 10); err == nil {
		t.Error("zero count accepted")
	}
	if _, _, err := c.EarliestWindow(3, 10); err == nil {
		t.Error("count beyond cluster accepted")
	}
	if _, _, err := c.EarliestWindow(1, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestReserve checks the scheduler's reservation step: each job is booked
// at its earliest feasible start, so a job needing a node the first one
// holds queues behind it.
func TestReserve(t *testing.T) {
	c, _ := NewCluster(2)
	r1, err := reserveAfter(c, QueuedJob{Name: "a", Nodes: 2, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Span.Start != 0 {
		t.Errorf("first reservation start: %v", r1.Span.Start)
	}
	r2, err := reserveAfter(c, QueuedJob{Name: "b", Nodes: 1, Duration: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Span.Start != 100 {
		t.Errorf("second reservation should queue behind: %v", r2.Span.Start)
	}
}

func TestStartableAt(t *testing.T) {
	c, _ := NewCluster(2)
	if err := c.Occupy(0, 0, 100); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.StartableAt(0, 2, 10); ok {
		t.Error("both nodes reported idle while one is busy")
	}
	nodes, ok := c.StartableAt(0, 1, 10)
	if !ok || len(nodes) != 1 || nodes[0] != 1 {
		t.Errorf("StartableAt: %v %v", nodes, ok)
	}
}

// TestEarliestWindowIsEarliest property: no feasible start exists strictly
// before the one EarliestWindow reports (checked on a tick grid).
func TestEarliestWindowIsEarliest(t *testing.T) {
	f := func(seed uint32) bool {
		rng := sim.NewRNG(uint64(seed))
		c, _ := NewCluster(3)
		for i := 0; i < 10; i++ {
			node := rng.IntN(3)
			start := sim.Time(rng.IntN(300))
			d := sim.Duration(rng.IntBetween(10, 80))
			_ = c.Occupy(node, start, d) // collisions are fine to skip
		}
		count := rng.IntBetween(1, 3)
		dur := sim.Duration(rng.IntBetween(10, 120))
		start, nodes, err := c.EarliestWindow(count, dur)
		if err != nil || len(nodes) != count {
			return false
		}
		if _, ok := c.StartableAt(start, count, dur); !ok {
			return false
		}
		for tick := sim.Time(0); tick < start; tick++ {
			if _, ok := c.StartableAt(tick, count, dur); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
