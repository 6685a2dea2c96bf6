package slot

import (
	"fmt"
	"slices"
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

// extend applies Index.Extend's contract eagerly: each grow moves the end of
// the first slot with its node and span, and the run is sorted and appended.
// ok is false, and the model unchanged, exactly when Extend must refuse.
func (m listModel) extend(grows []Grow, run []Slot) (out listModel, ok bool) {
	out = m.clone()
	seen := make(map[int]bool)
	for _, g := range grows {
		at := slices.IndexFunc(m, func(s Slot) bool { return s.Node == g.Slot.Node && s.Span == g.Slot.Span })
		if at < 0 || g.End <= g.Slot.End() || seen[at] {
			return m, false
		}
		seen[at] = true
		out[at].Span.End = g.End
	}
	for i := 1; i < len(out); i++ {
		if less(out[i], out[i-1]) {
			return m, false
		}
	}
	sorted := slices.Clone(run)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	for k, s := range sorted {
		switch {
		case s.Empty(),
			k > 0 && !less(sorted[k-1], s),
			k == 0 && len(out) > 0 && !less(out[len(out)-1], s):
			return m, false
		}
	}
	return append(out, sorted...), true
}

// extendArgs draws the arguments of one Extend against the model's contents:
// up to three grows of held slots and a run of up to four slots starting
// after the last held one. Random draws can still be refused (a slot grown
// twice, a grow that reorders, two run slots that tie). With misuse set, the
// call also carries one thing Extend must always refuse: a grow of a slot the
// index does not hold, or a run slot that does not order after the last held
// one.
func extendArgs(m listModel, nodes []*resource.Node, draw func(n int) int, misuse bool) ([]Grow, []Slot) {
	var grows []Grow
	for k := draw(4); k > 0 && len(m) > 0; k-- {
		s := m[draw(len(m))]
		grows = append(grows, Grow{Slot: s, End: s.End() + sim.Time(1+draw(20))})
	}
	var base sim.Time
	if len(m) > 0 {
		base = m[len(m)-1].Start() + 1
	}
	var run []Slot
	for k := draw(5); k > 0; k-- {
		start := base + sim.Time(draw(30))
		run = append(run, New(nodes[draw(len(nodes))], start, start+sim.Time(1+draw(40))))
	}
	switch {
	case !misuse:
	case len(m) == 0 || draw(2) == 0:
		grows = append(grows, Grow{Slot: New(nodes[draw(len(nodes))], -50, -10), End: 0})
	default:
		run = append(run, m[len(m)-1])
	}
	return grows, run
}

// checkExtend runs one Extend on ix and its model with a clone of ix alive
// across the call: the result must match the model's verdict, a refusal must
// leave ix as it was, and the clone must not see the call either way.
func checkExtend(t *testing.T, label string, ix *Index, m listModel, grows []Grow, run []Slot, misuse bool) listModel {
	t.Helper()
	pre := ix.Clone(nil)
	want, ok := m.extend(grows, run)
	err := ix.Extend(grows, slices.Clone(run))
	switch {
	case misuse && err == nil:
		t.Fatalf("%s: Extend(%v, %v) accepted a misuse", label, grows, run)
	case ok != (err == nil):
		t.Fatalf("%s: Extend(%v, %v) = %v, model accepts: %v", label, grows, run, err, ok)
	}
	if err := pre.CheckInvariants(); err != nil {
		t.Fatalf("%s: clone taken before Extend: %v", label, err)
	}
	if !m.matches(pre) {
		t.Fatalf("%s: clone taken before Extend changed\nclone: %v\nmodel: %v", label, pre.List().Slots(), []Slot(m))
	}
	return want
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
// exercising the ignore-empty rule of Insert and NewList.
func randomSlot(rng *sim.RNG, nodes []*resource.Node) Slot {
	n := nodes[rng.IntN(len(nodes))]
	start := sim.Time(rng.IntBetween(0, 500))
	length := sim.Duration(rng.IntBetween(0, 90))
	if rng.IntN(10) == 0 {
		length = 0
	}
	return New(n, start, start.Add(length))
}

// randomList is a list of n random slots (randomSlot), the empty ones
// dropped.
func randomList(rng *sim.RNG, nodes []*resource.Node, n int) *List {
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = randomSlot(rng, nodes)
	}
	return NewList(slots)
}

// cowMember is one index of a clone family with the model it must equal.
type cowMember struct {
	ix    *Index
	model listModel
	born  int
	// parent is the member this one was cloned from (nil for an origin).
	parent *cowMember
}

// mutateMember applies one random mutation of the full Index surface to the
// member and its model.
func mutateMember(t *testing.T, label string, rng *sim.RNG, nodes []*resource.Node, mb *cowMember) {
	t.Helper()
	ix := mb.ix
	switch op := rng.IntN(14); {
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
	case op >= 12:
		misuse := op == 13
		grows, run := extendArgs(mb.model, nodes, rng.IntN, misuse)
		mb.model = checkExtend(t, label, ix, mb.model, grows, run, misuse)
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
// clones, of clones of clones — and shrinks by Release of a member into the
// index it was cloned from, and every other step mutates a random member
// through the full surface (Insert, RemoveExact, SubtractInterval, DropNode,
// TrimBefore, and Extend both accepted and refused). After every step every
// member, written or not, must equal its own eagerly-copied model and hold
// the bucket invariants. Small targets make every write cross a bucket
// boundary sooner or later; 256 keeps everything in one shared bucket.
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
				k := rng.IntN(len(family))
				mb := family[k]
				switch op := rng.IntN(10); {
				case op < 2 && len(family) < 8:
					family = append(family, &cowMember{ix: mb.ix.Clone(nil), model: mb.model.clone(), born: step, parent: mb})
				case op < 3 && mb.parent != nil && slices.Contains(family, mb.parent):
					// Hand the member back to the index it was cloned from; its
					// own clones, if any, keep reading what it held.
					mb.parent.ix.Release(mb.ix)
					family = slices.Delete(family, k, k+1)
				default:
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
