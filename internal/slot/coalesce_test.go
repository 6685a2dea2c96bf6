package slot

import (
	"sort"
	"testing"
	"testing/quick"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Coalesce merges touching or overlapping slots that share a node and a
// price, returning a new normalized list. Cancelled reservations re-open
// vacancy fragments that often abut the surrounding slots; coalescing keeps
// the list small and the windows the search can build maximal.
func (l *List) Coalesce() *List {
	// Group by (node, price), merge within groups, then rebuild.
	type key struct {
		node  *resource.Node
		price sim.Money
	}
	groups := make(map[key][]sim.Interval)
	for _, s := range l.slots {
		k := key{s.Node, s.Price}
		groups[k] = append(groups[k], s.Span)
	}
	var merged []Slot
	for k, ivs := range groups {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		cur := ivs[0]
		for _, iv := range ivs[1:] {
			if iv.Start <= cur.End { // touching or overlapping
				if iv.End > cur.End {
					cur.End = iv.End
				}
				continue
			}
			merged = append(merged, Slot{Node: k.node, Price: k.price, Span: cur})
			cur = iv
		}
		merged = append(merged, Slot{Node: k.node, Price: k.price, Span: cur})
	}
	return NewList(merged)
}

func TestCoalesceMergesTouching(t *testing.T) {
	n := node("a", 1, 2)
	l := NewList([]Slot{
		New(n, 0, 50),
		New(n, 50, 100),  // touches the first
		New(n, 120, 150), // gap
	})
	c := l.Coalesce()
	if c.Len() != 2 {
		t.Fatalf("Len: got %d, want 2\n%v", c.Len(), c)
	}
	if c.At(0).Span != (sim.Interval{Start: 0, End: 100}) {
		t.Errorf("merged slot: %v", c.At(0))
	}
}

func TestCoalesceRespectsPriceAndNode(t *testing.T) {
	n := node("a", 1, 2)
	m := node("b", 1, 2)
	differentPrice := New(n, 50, 100)
	differentPrice.Price = 3
	l := NewList([]Slot{
		New(n, 0, 50),
		differentPrice,   // same node, different price: not merged
		New(m, 100, 150), // different node
	})
	c := l.Coalesce()
	if c.Len() != 3 {
		t.Errorf("Len: got %d, want 3 (no merges)\n%v", c.Len(), c)
	}
}

func TestCoalesceProperty(t *testing.T) {
	// Coalescing never changes per-(node, price) covered time, never
	// leaves touching same-price neighbors, and is idempotent.
	ns := buildNodes(3)
	f := func(seed uint32) bool {
		rng := sim.NewRNG(uint64(seed))
		var slots []Slot
		for i := 0; i < 12; i++ {
			n := ns[rng.IntN(len(ns))]
			start := sim.Time(rng.IntN(300))
			s := New(n, start, start.Add(sim.Duration(rng.IntBetween(5, 60))))
			s.Price = sim.Money(rng.IntBetween(1, 2))
			slots = append(slots, s)
		}
		l := NewList(slots)
		c := l.Coalesce()
		if err := c.Validate(); err != nil {
			return false
		}
		// Covered time per (node, price): union length must match.
		cover := func(list *List) map[[2]int64]sim.Duration {
			out := map[[2]int64]sim.Duration{}
			type k struct {
				n     int64
				price int64
			}
			_ = k{}
			// merge intervals per key using a coalesced list itself —
			// instead compute union by sweeping the (already sorted)
			// coalesced list; for the raw list, coalesce first.
			cl := list.Coalesce()
			for _, s := range cl.Slots() {
				key := [2]int64{int64(s.Node.ID), int64(s.Price)}
				out[key] += s.Length()
			}
			return out
		}
		a, b := cover(l), cover(c)
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		// No touching same-(node, price) neighbors remain.
		for i := 0; i < c.Len(); i++ {
			for j := i + 1; j < c.Len(); j++ {
				si, sj := c.At(i), c.At(j)
				if si.Node == sj.Node && si.Price == sj.Price &&
					(si.End() == sj.Start() || sj.End() == si.Start() || si.Span.Overlaps(sj.Span)) {
					return false
				}
			}
		}
		// Idempotence.
		cc := c.Coalesce()
		if cc.Len() != c.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
