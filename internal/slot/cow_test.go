package slot

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// wideList builds an n-slot canonical list shaped like the benchmark's wide
// grid: 1000 nodes with distinct IDs, each vacant 50 ticks out of every 60.
func wideList(n int) (*List, []*resource.Node) {
	nodes := make([]*resource.Node, 1000)
	for i := range nodes {
		nodes[i] = &resource.Node{ID: resource.NodeID(i + 1), Performance: 1 + float64(i%3), Price: sim.Money(1 + i%4)}
	}
	slots := make([]Slot, n)
	for k := range slots {
		i := k % len(nodes)
		start := sim.Time(k/len(nodes)*60 + i%50)
		slots[k] = New(nodes[i], start, start+50)
	}
	return NewList(slots), nodes
}

// cutMiddle subtracts one tick from the middle of the slot at rank r; K1
// keeps the slot's start, so it lands where K was.
func cutMiddle(tb testing.TB, ix *Index, r int) {
	tb.Helper()
	s := ix.At(r)
	mid := s.Start().Add(s.Length() / 2)
	if err := ix.SubtractInterval(s, sim.Interval{Start: mid, End: mid + 1}); err != nil {
		tb.Fatal(err)
	}
}

// TestIndexMutationCostIsBucketBound is the complexity claim as a
// deterministic count: at 5 000 and at 100 000 slots alike, one window
// subtraction moves at most 4×DefaultBucketSize+1 slots — K1 overwrites K,
// K2's insert shifts less than one bucket, a split re-tiles one — a Clone
// moves none, and the first write after a Clone copies exactly one bucket on
// each side.
func TestIndexMutationCostIsBucketBound(t *testing.T) {
	const bound = 4*DefaultBucketSize + 1
	for _, n := range []int{5_000, 100_000} {
		list, _ := wideList(n)
		m := NewIndexMetrics(metrics.New(), "origin/")
		ix := NewIndex(list, m)
		delta := func(m *IndexMetrics, op func()) (moved, copies int64) {
			moved, copies = m.SlotsMoved.Value(), m.BucketCopies.Value()
			op()
			return m.SlotsMoved.Value() - moved, m.BucketCopies.Value() - copies
		}

		// Owned buckets: the cut shifts slots inside the buckets it lands in.
		moved, copies := delta(m, func() { cutMiddle(t, ix, n/2) })
		if moved == 0 || moved > bound || copies != 0 {
			t.Errorf("n=%d: a subtraction moved %d slots and copied %d buckets, want (0, %d] and 0", n, moved, copies, bound)
		}

		cm := NewIndexMetrics(metrics.New(), "clone/")
		var c *Index
		moved, copies = delta(m, func() { c = ix.Clone(cm) })
		if moved != 0 || copies != 0 || cm.SlotsMoved.Value() != 0 || cm.BucketCopies.Value() != 0 {
			t.Errorf("n=%d: Clone moved slots (origin %d, clone %d) or copied buckets (origin %d, clone %d)",
				n, moved, cm.SlotsMoved.Value(), copies, cm.BucketCopies.Value())
		}

		// The first write on either side copies the bucket it lands in, and
		// only that one; the second write to the same bucket copies nothing.
		// The cut leaves K2 empty and K1 in K's place, mid-bucket.
		r := n/3/DefaultBucketSize*DefaultBucketSize + DefaultBucketSize/2
		for _, side := range []struct {
			name string
			ix   *Index
			m    *IndexMetrics
		}{{"origin", ix, m}, {"clone", c, cm}} {
			first := func() {
				s := side.ix.At(r)
				if err := side.ix.SubtractInterval(s, sim.Interval{Start: s.Start() + 1, End: s.End()}); err != nil {
					t.Fatal(err)
				}
			}
			moved, copies = delta(side.m, first)
			if copies != 1 || moved > bound {
				t.Errorf("n=%d %s: first write after Clone copied %d buckets and moved %d slots, want 1 and <= %d", n, side.name, copies, moved, bound)
			}
			moved, copies = delta(side.m, func() { side.ix.RemoveAt(r) })
			if copies != 0 || moved > DefaultBucketSize*2 {
				t.Errorf("n=%d %s: second write to an owned bucket copied %d buckets and moved %d slots", n, side.name, copies, moved)
			}
			if err := side.ix.CheckInvariants(); err != nil {
				t.Fatalf("n=%d %s: %v", n, side.name, err)
			}
		}
		// One cut added a slot before the clone was taken, one removal took
		// one back on each side.
		if ix.Len() != n || c.Len() != n {
			t.Errorf("n=%d: origin holds %d slots and clone %d, want %d each", n, ix.Len(), c.Len(), n)
		}
	}
}

// TestExtendCostIsBounded pins horizon extension as one bulk operation: on a
// 100 000-slot index with a published clone alive, an extension of m grows
// and an r-slot run moves at most r + 2×target slots per bucket it touches —
// the buckets holding a grown slot, copied once each, and the last bucket
// re-tiled with the run — and goes through no Insert and no split, whether the
// grows sit at the tail (as a grid's trailing slots do) or are scattered over
// every bucket. The clone sees none of it.
func TestExtendCostIsBounded(t *testing.T) {
	list, nodes := wideList(100_000)
	tail, run := wideExtension(list, nodes)
	var scattered []Grow
	for r := 0; r < list.Len(); r += 199 {
		s := list.At(r)
		scattered = append(scattered, Grow{Slot: s, End: s.End() + 1})
	}
	for _, tc := range []struct {
		name  string
		grows []Grow
	}{{"tail", tail}, {"scattered", scattered}} {
		m := NewIndexMetrics(metrics.New(), "origin/")
		ix := NewIndex(list, m)
		view := ix.Clone(nil)
		touched := map[int]bool{len(ix.buckets) - 1: true}
		for _, g := range tc.grows {
			pos, _, ok := ix.find(g.Slot)
			if !ok {
				t.Fatalf("%s: grow of %v: slot not held", tc.name, g.Slot)
			}
			touched[pos] = true
		}

		moved, inserts, splits := m.SlotsMoved.Value(), m.Inserts.Value(), m.Splits.Value()
		if err := ix.Extend(tc.grows, slices.Clone(run)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		moved = m.SlotsMoved.Value() - moved
		if bound := int64(len(run) + 2*DefaultBucketSize*len(touched)); moved == 0 || moved > bound {
			t.Errorf("%s: %d grows and a %d-slot run over %d buckets moved %d slots, want (0, %d]",
				tc.name, len(tc.grows), len(run), len(touched), moved, bound)
		}
		if d := m.Inserts.Value() - inserts; d != 0 {
			t.Errorf("%s: extension went through Insert %d times", tc.name, d)
		}
		if d := m.Splits.Value() - splits; d != 0 {
			t.Errorf("%s: extension split %d buckets", tc.name, d)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := list.Len() + len(run); ix.Len() != want {
			t.Errorf("%s: extended index holds %d slots, want %d", tc.name, ix.Len(), want)
		}
		if !listModel(list.Slots()).matches(view) {
			t.Errorf("%s: the clone published before the extension changed", tc.name)
		}
	}
}

// TestIndexClonesScanWhileOriginMutates runs the publication pattern on real
// goroutines: each round clones the origin for several readers, which scan
// their clones in resumed chunks (half of them also cutting windows out of
// their own clone, as a search does) while the origin keeps being mutated
// through its whole surface. Under -race this proves no write ever reaches a
// shared bucket; the model comparison proves every clone still reads exactly
// the state it was cloned in.
func TestIndexClonesScanWhileOriginMutates(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const readers = 4
	rng := sim.NewRNG(21)
	nodes := propNodes(6)
	origin := &cowMember{ix: NewIndexSize(NewList(nil), 8, nil)}
	for origin.ix.Len() < 600 {
		s := randomSlot(rng, nodes)
		origin.ix.Insert(s)
		origin.model = origin.model.insert(s)
	}
	filters := []Filter{{}, {MinPerf: 3}, {MinPerf: 2, PriceCap: true, MaxPrice: 3}}

	for round := 0; round < 12; round++ {
		var wg sync.WaitGroup
		clones := make([]*cowMember, readers)
		for g := range clones {
			clones[g] = &cowMember{ix: origin.ix.Clone(nil), model: origin.model.clone(), born: round}
			wg.Add(1)
			go func(g int, c *cowMember) {
				defer wg.Done()
				for pass := 0; pass < 4; pass++ {
					for _, f := range filters {
						var got []int
						for from := 0; from < c.ix.Len(); from += 37 {
							c.ix.ScanFrom(f, from, from+37, nil, func(rank int, s Slot) bool {
								if rank >= len(c.model) || c.model[rank] != s {
									t.Errorf("round %d reader %d: rank %d yields %v, not its model's slot", round, g, rank, s)
									return false
								}
								got = append(got, rank)
								return true
							})
						}
						if want := modelScan(c.model, f, len(c.model)); !ranksEqual(got, want) {
							t.Errorf("round %d reader %d: chunked scan %+v yields %d ranks, model %d", round, g, f, len(got), len(want))
						}
					}
					if g%2 == 1 && c.ix.Len() > 0 {
						s := c.ix.At((pass*131 + g) % c.ix.Len())
						used := sim.Interval{Start: s.Start(), End: s.Start() + 1}
						if err := c.ix.SubtractInterval(s, used); err != nil {
							t.Errorf("round %d reader %d: %v", round, g, err)
							return
						}
						c.model = c.model.subtract(s, used)
					}
				}
			}(g, clones[g])
		}
		for i := 0; i < 60; i++ {
			mutateMember(t, "origin", rng, nodes, origin)
		}
		wg.Wait()
		for g, c := range append(clones, origin) {
			if err := c.ix.CheckInvariants(); err != nil {
				t.Fatalf("round %d member %d: %v", round, g, err)
			}
			if !c.model.matches(c.ix) {
				t.Fatalf("round %d member %d no longer equals its model", round, g)
			}
		}
	}
}

// TestOrderInvariantIsTheFullOrder is the regression for an invariant that
// was checked more weakly than it was relied on: a list whose start times are
// non-decreasing but whose ties are ordered wrongly used to pass Validate,
// while every lookup bisects on the full (start, node, end) order and misses.
func TestOrderInvariantIsTheFullOrder(t *testing.T) {
	ns := buildNodes(3)
	a, b, c := New(ns[0], 10, 50), New(ns[1], 10, 50), New(ns[2], 10, 50)

	l := NewList([]Slot{a, b, c})
	l.slots[0], l.slots[2] = c, a
	for i := 1; i < l.Len(); i++ {
		if l.At(i-1).Start() > l.At(i).Start() {
			t.Fatal("fixture breaks the start order too; it must only misorder ties")
		}
	}
	if _, _, ok := NewIndex(l, nil).find(c); ok {
		t.Fatal("fixture too weak: the lookup still finds the misplaced slot")
	}
	if err := l.Validate(); err == nil {
		t.Error("Validate accepts a list whose ties are ordered wrongly")
	}

	// In an index the same defect may sit on a bucket boundary: [a c | b].
	ix := NewIndexSize(NewList([]Slot{a, b, c}), 2, nil)
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ix.buckets[0].slots[1], ix.buckets[1].slots[0] = c, b
	if err := ix.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepts a misordered tie across a bucket boundary")
	}
	ix.buckets[0].slots[1], ix.buckets[1].slots[0] = b, c
	ix.n++
	if err := ix.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepts bucket lengths that do not sum to Len()")
	}
}

// TestReleaseHandsBucketsBack pins the release contract by its bucket-copy
// count on a 100 000-slot index: after a view is released, the origin writes
// every bucket in place, including those it had not written since the view
// was published; while the view is held, its first write to each copies it.
func TestReleaseHandsBucketsBack(t *testing.T) {
	list, _ := wideList(100_000)
	m := NewIndexMetrics(metrics.New(), "origin/")
	ix := NewIndex(list, m)
	model := listModel(slices.Clone(list.Slots()))
	copies := func(op func()) int64 {
		before := m.BucketCopies.Value()
		op()
		return m.BucketCopies.Value() - before
	}
	// writeAll cuts the tail off one slot in the middle of each of n spread
	// buckets of the origin; the remainder keeps the slot's place.
	writeAll := func(n int) {
		for k := 0; k < n; k++ {
			s := ix.At((2*k+1)*DefaultBucketSize + DefaultBucketSize/2)
			used := sim.Interval{Start: s.Start().Add(s.Length() / 2), End: s.End()}
			if err := ix.SubtractInterval(s, used); err != nil {
				t.Fatal(err)
			}
			model = model.subtract(s, used)
		}
	}

	view := ix.Clone(nil)
	if n := copies(func() { writeAll(3) }); n != 3 {
		t.Fatalf("held view: 3 first writes copied %d buckets, want 3", n)
	}
	ix.Release(view)
	if n := copies(func() { writeAll(40) }); n != 0 {
		t.Errorf("after release: 40 writes copied %d buckets, want 0", n)
	}
	// The next publication shares everything again, and a second release
	// gives it all back again.
	view = ix.Clone(nil)
	if n := copies(func() { writeAll(2) }); n != 2 {
		t.Errorf("second view held: 2 first writes copied %d buckets, want 2", n)
	}
	ix.Release(view)
	if n := copies(func() { writeAll(40) }); n != 0 {
		t.Errorf("after second release: 40 writes copied %d buckets, want 0", n)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !model.matches(ix) {
		t.Fatal("origin diverged from its model across releases")
	}
}

// TestReleaseIsANoOpAfterAClone covers the two cases in which Release must
// stamp nothing, because a third index may hold the buckets the view shares:
// the origin was cloned again after the view's publication, or the view
// itself was cloned. In both the origin's next writes copy as if the view
// were still held, and the third index keeps reading its own state.
func TestReleaseIsANoOpAfterAClone(t *testing.T) {
	for _, tc := range []struct {
		name  string
		third func(origin, view *Index) *Index
	}{
		{"origin cloned since", func(origin, _ *Index) *Index { return origin.Clone(nil) }},
		{"view cloned since", func(_, view *Index) *Index { return view.Clone(nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			list, _ := wideList(20_000)
			m := NewIndexMetrics(metrics.New(), "origin/")
			ix := NewIndex(list, m)
			model := listModel(slices.Clone(list.Slots()))
			view := ix.Clone(nil)
			third := tc.third(ix, view)
			thirdModel := model.clone()
			ix.Release(view)

			before := m.BucketCopies.Value()
			for k := 0; k < 20; k++ {
				s := ix.At(k*DefaultBucketSize*3 + DefaultBucketSize/2)
				used := sim.Interval{Start: s.Start() + 1, End: s.End()}
				if err := ix.SubtractInterval(s, used); err != nil {
					t.Fatal(err)
				}
				model = model.subtract(s, used)
			}
			if n := m.BucketCopies.Value() - before; n != 20 {
				t.Errorf("20 first writes after a refused release copied %d buckets, want 20", n)
			}
			for _, mb := range []struct {
				name  string
				ix    *Index
				model listModel
			}{{"origin", ix, model}, {"third", third, thirdModel}} {
				if err := mb.ix.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", mb.name, err)
				}
				if !mb.model.matches(mb.ix) {
					t.Fatalf("%s diverged from its model", mb.name)
				}
			}
		})
	}
}

// TestReleasedIndexFailsLoudly checks that a released view is emptied so
// that reading, writing, cloning or releasing it again panics, and that its
// invariant check reports it, instead of answering from buckets that went
// back to the store.
func TestReleasedIndexFailsLoudly(t *testing.T) {
	list, nodes := wideList(2_000)
	ix := NewIndex(list, nil)
	view := ix.Clone(nil)
	ix.Release(view)
	if err := view.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepts a released index")
	}
	for name, use := range map[string]func(){
		"Len":         func() { view.Len() },
		"At":          func() { view.At(0) },
		"Scan":        func() { view.Scan(Filter{}, 10, nil, func(int, Slot) bool { return true }) },
		"Insert":      func() { view.Insert(New(nodes[0], 5, 9)) },
		"Subtract":    func() { _ = view.SubtractInterval(list.At(0), list.At(0).Span) },
		"RankAtOrAft": func() { view.RankAtOrAfter(0) },
		"DropNode":    func() { view.DropNode(nodes[0]) },
		"TrimBefore":  func() { view.TrimBefore(100) },
		"Clone":       func() { view.Clone(nil) },
		"Release":     func() { ix.Release(view) },
		"into itself": func() { ix.Release(ix) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released index did not panic", name)
				}
			}()
			use()
		}()
	}
	if err := ix.CheckInvariants(); err != nil || ix.Len() != list.Len() {
		t.Fatalf("origin after release: Len %d (want %d), %v", ix.Len(), list.Len(), err)
	}
}

// TestRetiredBucketsStayPrivate pins the free list's two rules on a
// 20 000-slot index. Only a bucket the index owns outright retires: a trim
// while a view holds the front buckets retires none of them, so the re-tiled
// front cannot be written over the view's slots, and after the view is
// released the next trim retires what it replaces. A reused bucket is
// stamped with the index's current token: after a later view is published
// and released, the extension that reuses buckets retired before it leaves
// every bucket owned, and cuts in the new tail copy nothing.
func TestRetiredBucketsStayPrivate(t *testing.T) {
	list, nodes := wideList(20_000)
	m := NewIndexMetrics(metrics.New(), "origin/")
	ix := NewIndex(list, m)
	model := listModel(slices.Clone(list.Slots()))
	// trim cuts the index and its model at cut; the model is re-sorted whole
	// rather than taking listModel.trimBefore's one insert per slot.
	trim := func(cut sim.Time) {
		var kept []Slot
		for _, s := range model {
			switch {
			case s.End() <= cut:
				continue
			case s.Start() < cut:
				s.Span.Start = cut
			}
			kept = append(kept, s)
		}
		model = listModel(NewList(kept).Slots())
		ix.TrimBefore(cut)
	}

	view := ix.Clone(nil)
	viewModel := model.clone()
	trim(120)
	if len(ix.free) != 0 {
		t.Fatalf("a trim of buckets a view holds retired %d of them", len(ix.free))
	}
	if !viewModel.matches(view) {
		t.Fatal("the view changed under the origin's trim")
	}
	ix.Release(view)
	trim(240)
	if len(ix.free) == 0 {
		t.Fatal("a trim of owned buckets retired none")
	}
	if !model.matches(ix) {
		t.Fatal("the trimmed index diverged from its model")
	}

	view = ix.Clone(nil)
	ix.Release(view)
	last := ix.At(ix.Len() - 1).Start()
	var run []Slot
	for i, n := range nodes {
		start := last.Add(sim.Duration(60 + i%50))
		run = append(run, New(n, start, start.Add(50)))
	}
	free := len(ix.free)
	model, _ = model.extend(nil, run)
	if err := ix.Extend(nil, slices.Clone(run)); err != nil {
		t.Fatal(err)
	}
	if len(ix.free) >= free {
		t.Fatalf("the extension reused none of %d retired buckets", free)
	}
	for pos, b := range ix.buckets {
		if b.owner != ix.own {
			t.Fatalf("bucket %d of %d is not stamped with the index's token", pos, len(ix.buckets))
		}
	}
	copies := m.BucketCopies.Value()
	for r := ix.Len() - len(run); r < ix.Len(); r += DefaultBucketSize / 2 {
		s := ix.At(r)
		used := sim.Interval{Start: s.Start().Add(s.Length() / 2), End: s.End()}
		if err := ix.SubtractInterval(s, used); err != nil {
			t.Fatal(err)
		}
		model = model.subtract(s, used)
	}
	if n := m.BucketCopies.Value() - copies; n != 0 {
		t.Errorf("cuts in the extended tail copied %d buckets, want 0", n)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !model.matches(ix) {
		t.Fatal("the index diverged from its model")
	}
}
