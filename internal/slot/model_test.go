package slot

import (
	"fmt"
	"sort"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// listModel is the naive reference implementation of the canonical slot
// order: a plain sorted slice with value semantics. Every operation copies
// eagerly, so the model trivially has the isolation the copy-on-write Index
// must reproduce.
type listModel []Slot

func (m listModel) clone() listModel {
	out := make(listModel, len(m))
	copy(out, m)
	return out
}

func (m listModel) insert(s Slot) listModel {
	if s.Empty() {
		return m
	}
	out := append(m.clone(), s)
	// Stable sort puts the new element after existing order-ties, exactly
	// where Insert's upper-bound search lands it.
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func (m listModel) removeAt(i int) listModel {
	out := m.clone()
	return append(out[:i], out[i+1:]...)
}

// subtract cuts used out of the first slot equal to s.
func (m listModel) subtract(s Slot, used sim.Interval) listModel {
	at := 0
	for at < len(m) && m[at] != s {
		at++
	}
	left, right := s, s
	left.Span = sim.Interval{Start: s.Start(), End: used.Start}
	right.Span = sim.Interval{Start: used.End, End: s.End()}
	return m.removeAt(at).insert(left).insert(right)
}

// dropNode removes every slot on n, reporting how many.
func (m listModel) dropNode(n *resource.Node) (listModel, int) {
	var out listModel
	for _, s := range m {
		if s.Node != n {
			out = append(out, s)
		}
	}
	return out, len(m) - len(out)
}

// trimBefore drops slots ending at or before cut and re-anchors the ones
// straddling it.
func (m listModel) trimBefore(cut sim.Time) (out listModel, dropped, trimmed int) {
	for _, s := range m {
		switch {
		case s.End() <= cut:
			dropped++
			continue
		case s.Start() < cut:
			trimmed++
			s.Span.Start = cut
		}
		out = out.insert(s)
	}
	return out, dropped, trimmed
}

// equalTo compares the model against a List slot by slot.
func (m listModel) equalTo(l *List) bool {
	if len(m) != l.Len() {
		return false
	}
	for i, s := range m {
		if l.At(i) != s {
			return false
		}
	}
	return true
}

// matches compares the model against an Index by iteration, with the ranks
// Each reports.
func (m listModel) matches(ix *Index) bool {
	if len(m) != ix.Len() {
		return false
	}
	ok, seen := true, 0
	ix.Each(func(rank int, s Slot) bool {
		ok = rank == seen && m[rank] == s
		seen++
		return ok
	})
	return ok && seen == len(m)
}

// randomSlot draws a slot over the node pool; roughly one in ten is empty,
// exercising Insert's ignore-empty rule.
func randomSlot(rng *sim.RNG, nodes []*resource.Node) Slot {
	n := nodes[rng.IntN(len(nodes))]
	start := sim.Time(rng.IntBetween(0, 500))
	length := sim.Duration(rng.IntBetween(0, 90))
	if rng.IntN(10) == 0 {
		length = 0
	}
	return New(n, start, start.Add(length))
}

// TestListModelInterleavings drives long random interleavings of Insert and
// RemoveAt against the naive slice model: after every step the list must
// match the model, and every copy taken along the way must still match the
// model state frozen with it. List is the value type the oracles run on, so
// this is the reference the Index suites below are measured against.
func TestListModelInterleavings(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		nodes := propNodes(6)
		list := NewList(nil)
		model := listModel{}

		type frozen struct {
			view  *List
			model listModel
			step  int
		}
		var copies []frozen

		for step := 0; step < 150; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.IntN(10); {
			case op < 5: // insert
				s := randomSlot(rng, nodes)
				list.Insert(s)
				model = model.insert(s)
			case op < 7 && list.Len() > 0: // remove
				i := rng.IntN(list.Len())
				list.RemoveAt(i)
				model = model.removeAt(i)
			default: // copy
				copies = append(copies, frozen{view: list.Clone(), model: model.clone(), step: step})
			}
			if !model.equalTo(list) {
				t.Fatalf("%s: list diverged from model\nlist:  %v\nmodel: %v", label, list.Slots(), []Slot(model))
			}
			for _, c := range copies {
				if !c.model.equalTo(c.view) {
					t.Fatalf("%s: copy from step %d no longer matches its frozen model\nview:  %v\nmodel: %v",
						label, c.step, c.view.Slots(), []Slot(c.model))
				}
			}
		}
	}
}

// cowMember is one index of a clone family with the model it must equal.
type cowMember struct {
	ix    *Index
	model listModel
	born  int
}

// mutateMember applies one random mutation of the full Index surface to the
// member and its model.
func mutateMember(t *testing.T, label string, rng *sim.RNG, nodes []*resource.Node, mb *cowMember) {
	t.Helper()
	ix := mb.ix
	switch op := rng.IntN(12); {
	case op < 4 || ix.Len() == 0:
		s := randomSlot(rng, nodes)
		ix.Insert(s)
		mb.model = mb.model.insert(s)
	case op < 6:
		r := rng.IntN(ix.Len())
		s := ix.At(r)
		if !ix.RemoveExact(s) {
			t.Fatalf("%s: RemoveExact(%v) missed a slot taken from the index", label, s)
		}
		// Duplicates are value-identical, so removing the first match and
		// removing rank r leave the same sequence.
		mb.model = mb.model.removeAt(r)
	case op < 9:
		s := ix.At(rng.IntN(ix.Len()))
		lo := s.Start().Add(sim.Duration(rng.IntN(int(s.Length()))))
		hi := lo.Add(sim.Duration(1 + rng.IntN(int(s.End().Sub(lo)))))
		used := sim.Interval{Start: lo, End: hi}
		if err := ix.SubtractInterval(s, used); err != nil {
			t.Fatalf("%s: subtract %v from %v: %v", label, used, s, err)
		}
		mb.model = mb.model.subtract(s, used)
	case op < 10:
		n := nodes[rng.IntN(len(nodes))]
		var want int
		mb.model, want = mb.model.dropNode(n)
		if got := ix.DropNode(n); got != want {
			t.Fatalf("%s: DropNode(%s) = %d, model says %d", label, n.Name, got, want)
		}
	default:
		cut := sim.Time(rng.IntN(300))
		var wantDropped, wantTrimmed int
		mb.model, wantDropped, wantTrimmed = mb.model.trimBefore(cut)
		if dropped, trimmed := ix.TrimBefore(cut); dropped != wantDropped || trimmed != wantTrimmed {
			t.Fatalf("%s: TrimBefore(%v) = (%d, %d), model says (%d, %d)", label, cut, dropped, trimmed, wantDropped, wantTrimmed)
		}
	}
}

// TestIndexModelCOW is the copy-on-write contract stated as a refinement of
// value semantics: a family of indexes grows by Clone — of the origin, of
// clones, of clones of clones — and every step mutates a random member
// through the full surface (Insert, RemoveExact, SubtractInterval, DropNode,
// TrimBefore). After every step every member, written or not, must equal its
// own eagerly-copied model and hold the bucket invariants. Small targets make
// every write cross a bucket boundary sooner or later; 256 keeps everything
// in one shared bucket.
func TestIndexModelCOW(t *testing.T) {
	for _, target := range []int{1, 2, 4, 256} {
		for seed := uint64(1); seed <= 12; seed++ {
			rng := sim.NewRNG(seed)
			nodes := propNodes(6)
			family := []*cowMember{{ix: NewIndexSize(NewList(nil), target, nil)}}
			for i := 0; i < 30; i++ {
				s := randomSlot(rng, nodes)
				family[0].ix.Insert(s)
				family[0].model = family[0].model.insert(s)
			}
			for step := 0; step < 160; step++ {
				label := fmt.Sprintf("target %d seed %d step %d", target, seed, step)
				mb := family[rng.IntN(len(family))]
				if rng.IntN(5) == 0 && len(family) < 8 {
					family = append(family, &cowMember{ix: mb.ix.Clone(nil), model: mb.model.clone(), born: step})
				} else {
					mutateMember(t, label, rng, nodes, mb)
				}
				for i, other := range family {
					if err := other.ix.CheckInvariants(); err != nil {
						t.Fatalf("%s: member %d (cloned at step %d): %v", label, i, other.born, err)
					}
					if !other.model.matches(other.ix) {
						t.Fatalf("%s: member %d (cloned at step %d) diverged from its model\nindex: %v\nmodel: %v",
							label, i, other.born, other.ix.List().Slots(), []Slot(other.model))
					}
				}
			}
		}
	}
}
