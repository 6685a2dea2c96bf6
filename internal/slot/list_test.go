package slot

import (
	"testing"
	"testing/quick"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// buildNodes creates a small pool of reusable nodes for list tests.
func buildNodes(n int) []*resource.Node {
	out := make([]*resource.Node, n)
	for i := range out {
		out[i] = &resource.Node{ID: resource.NodeID(i), Name: "", Performance: 1, Price: 1}
	}
	return out
}

func TestNewListSortsAndDropsEmpty(t *testing.T) {
	ns := buildNodes(3)
	l := NewList([]Slot{
		New(ns[0], 50, 100),
		New(ns[1], 0, 30),
		New(ns[2], 20, 20), // empty, dropped
		New(ns[2], 10, 40),
	})
	if l.Len() != 3 {
		t.Fatalf("Len: got %d, want 3 (empty dropped)", l.Len())
	}
	if l.At(0).Start() != 0 || l.At(1).Start() != 10 || l.At(2).Start() != 50 {
		t.Errorf("not sorted by start: %v", l)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestListTieBreakDeterministic(t *testing.T) {
	ns := buildNodes(3)
	// Same start times: order must be by node ID.
	l := NewList([]Slot{
		New(ns[2], 10, 50),
		New(ns[0], 10, 50),
		New(ns[1], 10, 50),
	})
	for i := 0; i < 3; i++ {
		if l.At(i).Node != ns[i] {
			t.Fatalf("tie-break order wrong at %d: %v", i, l.At(i))
		}
	}
}

// cutIndex builds an index over slots for the Fig. 1b cut tests below, which
// run on Index.SubtractInterval, the cut production runs.
func cutIndex(slots ...Slot) *Index { return NewIndex(NewList(slots), nil) }

func TestSubtractIntervalMiddle(t *testing.T) {
	ns := buildNodes(1)
	ix := cutIndex(New(ns[0], 0, 100))
	target := ix.At(0)
	if err := ix.SubtractInterval(target, sim.Interval{Start: 30, End: 60}); err != nil {
		t.Fatalf("SubtractInterval: %v", err)
	}
	if ix.Len() != 2 {
		t.Fatalf("expected K1 and K2, got %d slots", ix.Len())
	}
	k1, k2 := ix.At(0), ix.At(1)
	if k1.Start() != 0 || k1.End() != 30 {
		t.Errorf("K1 = %v, want [0, 30)", k1)
	}
	if k2.Start() != 60 || k2.End() != 100 {
		t.Errorf("K2 = %v, want [60, 100)", k2)
	}
}

func TestSubtractIntervalEdges(t *testing.T) {
	ns := buildNodes(1)

	// Cut at the left edge: only K2 remains.
	ix := cutIndex(New(ns[0], 0, 100))
	if err := ix.SubtractInterval(ix.At(0), sim.Interval{Start: 0, End: 40}); err != nil {
		t.Fatalf("left edge: %v", err)
	}
	if ix.Len() != 1 || ix.At(0).Start() != 40 || ix.At(0).End() != 100 {
		t.Errorf("left edge remainder wrong: %v", ix.List())
	}

	// Cut at the right edge: only K1 remains.
	ix = cutIndex(New(ns[0], 0, 100))
	if err := ix.SubtractInterval(ix.At(0), sim.Interval{Start: 70, End: 100}); err != nil {
		t.Fatalf("right edge: %v", err)
	}
	if ix.Len() != 1 || ix.At(0).Start() != 0 || ix.At(0).End() != 70 {
		t.Errorf("right edge remainder wrong: %v", ix.List())
	}

	// Cut the whole slot: nothing remains.
	ix = cutIndex(New(ns[0], 0, 100))
	if err := ix.SubtractInterval(ix.At(0), sim.Interval{Start: 0, End: 100}); err != nil {
		t.Fatalf("full cut: %v", err)
	}
	if ix.Len() != 0 {
		t.Errorf("full cut should leave empty list, got %v", ix.List())
	}
}

func TestSubtractIntervalErrors(t *testing.T) {
	ns := buildNodes(2)
	ix := cutIndex(New(ns[0], 0, 100))
	missing := New(ns[1], 0, 100)
	if err := ix.SubtractInterval(missing, sim.Interval{Start: 0, End: 10}); err == nil {
		t.Error("subtracting from a slot not in the list must fail")
	}
	if err := ix.SubtractInterval(ix.At(0), sim.Interval{Start: 50, End: 150}); err == nil {
		t.Error("interval escaping the slot must fail")
	}
	if ix.Len() != 1 {
		t.Error("failed subtraction must leave the list unchanged")
	}
}

func TestOverlapOnSameNode(t *testing.T) {
	ns := buildNodes(2)
	ok := NewList([]Slot{New(ns[0], 0, 50), New(ns[0], 50, 100), New(ns[1], 0, 100)})
	if ok.OverlapOnSameNode() {
		t.Error("touching slots flagged as overlap")
	}
	bad := NewList([]Slot{New(ns[0], 0, 60), New(ns[0], 50, 100)})
	if !bad.OverlapOnSameNode() {
		t.Error("overlap not detected")
	}
	// Overlap hidden behind an interleaved slot with a later end.
	tricky := NewList([]Slot{New(ns[0], 0, 100), New(ns[0], 10, 20)})
	if !tricky.OverlapOnSameNode() {
		t.Error("contained overlap not detected")
	}
}

func TestListValidateCatchesDisorder(t *testing.T) {
	ns := buildNodes(1)
	l := NewList([]Slot{New(ns[0], 0, 10)})
	// Break the invariant by direct mutation.
	l.slots = append(l.slots, New(ns[0], 0, 5))
	l.slots[1].Span.Start = -50
	l.slots[1].Span.End = -40
	if err := l.Validate(); err == nil {
		t.Error("disorder not detected")
	}
}

// TestSubtractConservesTime property: subtracting any contained interval
// conserves total vacant time minus exactly the cut length, never overlaps,
// and keeps the order invariant.
func TestSubtractConservesTime(t *testing.T) {
	ns := buildNodes(4)
	f := func(seed uint32) bool {
		rng := sim.NewRNG(uint64(seed))
		var slots []Slot
		for i := 0; i < 8; i++ {
			n := ns[rng.IntN(len(ns))]
			start := sim.Time(rng.IntN(500)) + sim.Time(1000*i) // disjoint bands per index
			length := sim.Duration(rng.IntBetween(10, 200))
			slots = append(slots, New(n, start, start.Add(length)))
		}
		l := NewList(slots)
		before := l.TotalTime()
		// Pick a random slot and cut a random contained interval.
		target := l.At(rng.IntN(l.Len()))
		off := sim.Duration(rng.IntN(int(target.Length())))
		maxLen := int(target.Length() - off)
		cutLen := sim.Duration(rng.IntBetween(1, maxLen))
		cut := sim.Interval{Start: target.Start().Add(off), End: target.Start().Add(off + cutLen)}
		ix := NewIndex(l, nil)
		if err := ix.SubtractInterval(target, cut); err != nil {
			return false
		}
		after := ix.List()
		return after.TotalTime() == before-cutLen && after.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestListString(t *testing.T) {
	ns := buildNodes(1)
	l := NewList([]Slot{New(ns[0], 0, 10), New(ns[0], 20, 30)})
	if s := l.String(); s == "" {
		t.Error("String should render the slots")
	}
}
