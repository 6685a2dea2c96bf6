package slot

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// RemoveAt deletes the slot at rank i.
func (ix *Index) RemoveAt(i int) {
	ix.removeFrom(ix.locate(i))
}

// modelScan is the naive reference for Index.Scan: filter a front-to-back
// walk of the model, honoring the rank limit.
func modelScan(m listModel, f Filter, limit int) []int {
	if limit > len(m) {
		limit = len(m)
	}
	var ranks []int
	for r := 0; r < limit; r++ {
		s := m[r]
		if s.Performance() < f.MinPerf {
			continue
		}
		if f.PriceCap && s.Price > f.MaxPrice {
			continue
		}
		ranks = append(ranks, r)
	}
	return ranks
}

// collectScan drains Index.Scan into the yielded rank sequence.
func collectScan(ix *Index, f Filter, limit int) []int {
	var ranks []int
	ix.Scan(f, limit, nil, func(rank int, s Slot) bool {
		ranks = append(ranks, rank)
		return true
	})
	return ranks
}

func ranksEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// indexFilters returns the filter grid the model comparisons sweep: floors
// and caps straddling the propNodes performance (1..3) and price (1..4)
// ranges, including always-empty and always-full extremes.
func indexFilters() []Filter {
	return []Filter{
		{},
		{MinPerf: 1},
		{MinPerf: 2},
		{MinPerf: 3},
		{MinPerf: 10},
		{PriceCap: true, MaxPrice: 2},
		{MinPerf: 2, PriceCap: true, MaxPrice: 3},
		{MinPerf: 3, PriceCap: true, MaxPrice: 1},
	}
}

// TestIndexModelInterleavings drives random Insert/RemoveAt/SubtractInterval
// interleavings against the naive slice model, asserting after every step
// that the indexed list matches the model, the bucket invariants hold, and
// Scan agrees with a filtered walk of the model for a grid of filters and
// limits. Small bucket targets force constant splitting and dropping.
func TestIndexModelInterleavings(t *testing.T) {
	for _, target := range []int{1, 2, 5, 64} {
		for seed := uint64(1); seed <= 15; seed++ {
			rng := sim.NewRNG(seed)
			nodes := propNodes(6)
			ix := NewIndexSize(NewList(nil), target, nil)
			model := listModel{}
			for step := 0; step < 120; step++ {
				switch op := rng.IntN(10); {
				case op < 5: // insert
					s := randomSlot(rng, nodes)
					ix.Insert(s)
					model = model.insert(s)
				case op < 7 && ix.Len() > 0: // remove
					i := rng.IntN(ix.Len())
					ix.RemoveAt(i)
					model = model.removeAt(i)
				case op < 8 && ix.Len() > 0: // subtract an interval of a random slot
					s := ix.At(rng.IntN(ix.Len()))
					used := subtractedInterval(s, rng.IntN)
					if err := ix.SubtractInterval(s, used); err != nil {
						t.Fatalf("target %d seed %d step %d: subtract %v from %v: %v", target, seed, step, used, s, err)
					}
					model = model.subtract(s, used)
				default: // query probes
					for _, f := range indexFilters() {
						for _, limit := range []int{0, ix.Len() / 2, ix.Len(), ix.Len() + 3} {
							got := collectScan(ix, f, limit)
							want := modelScan(model, f, limit)
							if !ranksEqual(got, want) {
								t.Fatalf("target %d seed %d step %d: Scan(%+v, %d) = %v, model says %v",
									target, seed, step, f, limit, got, want)
							}
						}
					}
				}
				if err := ix.CheckInvariants(); err != nil {
					t.Fatalf("target %d seed %d step %d: %v", target, seed, step, err)
				}
				if !model.matches(ix) {
					t.Fatalf("target %d seed %d step %d: indexed list diverged from model\nlist:  %v\nmodel: %v",
						target, seed, step, ix.List().Slots(), []Slot(model))
				}
			}
		}
	}
}

// subtractOnBoth applies one cut to an index and to the naive slice model
// (DESIGN.md §8) and fails unless both hold the same slots in the same order
// and the index's invariants hold.
func subtractOnBoth(t *testing.T, label string, ix *Index, l *List, target Slot, used sim.Interval) {
	t.Helper()
	want := listModel(l.Slots()).subtract(target, used)
	if err := ix.SubtractInterval(target, used); err != nil {
		t.Fatalf("%s: index: %v", label, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !want.matches(ix) {
		t.Fatalf("%s: index holds %v, slice model %v", label, ix.List().Slots(), []Slot(want))
	}
}

// pathList is twelve slots on twelve nodes of mixed performance, slot k at
// [2k, 2k+30): rank k, and at bucket target 4, bucket k/4.
func pathList() *List {
	slots := make([]Slot, 12)
	for k := range slots {
		n := &resource.Node{ID: resource.NodeID(k + 1), Performance: 1 + float64(k%3), Price: sim.Money(1 + k%4)}
		slots[k] = New(n, sim.Time(2*k), sim.Time(2*k+30))
	}
	return NewList(slots)
}

// TestSubtractIntervalPathsMatchList drives every way the index realizes a
// cut — K1 overwriting K in place, K1 empty with K2 rotated inside K's
// bucket or moved to a later one, the whole slot used — and checks each
// against the naive slice model, at bucket targets that put K2 in K's
// bucket, at its end, in the next bucket, or (target 1) in a bucket of its
// own that splits, after K's one-slot bucket is dropped.
func TestSubtractIntervalPathsMatchList(t *testing.T) {
	cases := []struct {
		name string
		rank int
		used sim.Interval
	}{
		{"K1 in place, K2 in K's bucket", 0, sim.Interval{Start: 1, End: 5}},
		{"K1 in place, K2 in a later bucket", 0, sim.Interval{Start: 1, End: 9}},
		{"K1 in place, K2 empty", 1, sim.Interval{Start: 20, End: 32}},
		{"K1 in place after the previous bucket's last slot", 4, sim.Interval{Start: 9, End: 20}},
		{"K1 empty, K2 rotated inside the bucket", 0, sim.Interval{Start: 0, End: 5}},
		{"K1 empty, K2 rotated to the bucket's end", 0, sim.Interval{Start: 0, End: 7}},
		{"K1 empty, K2 moved to a later bucket", 0, sim.Interval{Start: 0, End: 9}},
		{"K1 empty, K2 past every slot", 2, sim.Interval{Start: 4, End: 23}},
		{"K1 empty, K2 the last slot", 11, sim.Interval{Start: 22, End: 30}},
		{"whole slot used", 5, sim.Interval{Start: 10, End: 40}},
		{"empty interval at the start", 3, sim.Interval{Start: 6, End: 6}},
	}
	for _, target := range []int{1, 2, 4, 64} {
		for _, tc := range cases {
			l := pathList()
			ix := NewIndexSize(l, target, nil)
			subtractOnBoth(t, fmt.Sprintf("target %d: %s", target, tc.name), ix, l, l.At(tc.rank), tc.used)
		}
	}
}

// TestSubtractIntervalInPlaceYieldsToOrder pins the one order an in-place K1
// would break: slots [5,10) and [5,20) on one node, [8,20) cut from the
// second. K1 = [5,8) orders before [5,10), so it cannot take K's place; the
// cut goes through removal and insert and must match the slice model —
// with both slots in one bucket and split over two.
func TestSubtractIntervalInPlaceYieldsToOrder(t *testing.T) {
	n := &resource.Node{ID: 1, Performance: 1, Price: 1}
	for _, target := range []int{1, 4} {
		l := NewList([]Slot{New(n, 5, 10), New(n, 5, 20)})
		ix := NewIndexSize(l, target, nil)
		subtractOnBoth(t, fmt.Sprintf("target %d", target), ix, l, New(n, 5, 20), sim.Interval{Start: 8, End: 20})
		if got, want := ix.List().Slots(), []Slot{New(n, 5, 8), New(n, 5, 10)}; !slices.Equal(got, want) {
			t.Fatalf("target %d: index holds %v, want %v", target, got, want)
		}
	}
}

// TestIndexScanEarlyStop checks that returning false from the visitor stops
// the scan immediately, in both the selective (permutation) and dense paths.
func TestIndexScanEarlyStop(t *testing.T) {
	rng := sim.NewRNG(3)
	nodes := propNodes(6)
	ix := NewIndexSize(randomList(rng, nodes, 200), 16, nil)
	for _, f := range []Filter{{}, {MinPerf: 3}} {
		all := collectScan(ix, f, ix.Len())
		if len(all) < 3 {
			t.Fatalf("filter %+v yields only %d slots; fixture too small", f, len(all))
		}
		var got []int
		ix.Scan(f, ix.Len(), nil, func(rank int, s Slot) bool {
			got = append(got, rank)
			return len(got) < 3
		})
		if !ranksEqual(got, all[:3]) {
			t.Fatalf("filter %+v: early-stopped scan saw %v, want %v", f, got, all[:3])
		}
	}
}

// TestIndexRankAtOrAfter compares the rank lookup with a linear count.
func TestIndexRankAtOrAfter(t *testing.T) {
	rng := sim.NewRNG(9)
	nodes := propNodes(5)
	l := randomList(rng, nodes, 150)
	ix := NewIndexSize(l, 8, nil)
	for _, tm := range []sim.Time{-5, 0, 1, 100, 250, 499, 500, 1000} {
		want := 0
		for want < l.Len() && l.At(want).Start() < tm {
			want++
		}
		if got := ix.RankAtOrAfter(tm); got != want {
			t.Errorf("RankAtOrAfter(%v) = %d, want %d", tm, got, want)
		}
	}
}

// TestIndexMetricsAccounting pins the maintenance instruments: the initial
// build counts as a rebuild, inserts and removes are counted once each, tiny
// targets force splits and bucket drops, the bucket gauge tracks the live
// tiling, and each way of realizing a cut counts as pinned below.
func TestIndexMetricsAccounting(t *testing.T) {
	reg := metrics.New()
	m := NewIndexMetrics(reg, "slot/index/")
	rng := sim.NewRNG(7)
	nodes := propNodes(4)
	l := randomList(rng, nodes, 40)
	before := l.Len()
	ix := NewIndexSize(l, 2, m)
	inserts, removes := 0, 0
	for step := 0; step < 60; step++ {
		if rng.IntN(2) == 0 || ix.Len() == 0 {
			s := randomSlot(rng, nodes)
			if !s.Empty() {
				inserts++
			}
			ix.Insert(s)
		} else {
			ix.RemoveAt(rng.IntN(ix.Len()))
			removes++
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("slot/index/rebuilds_total"); got != 1 {
		t.Errorf("rebuilds_total = %d, want 1", got)
	}
	if got := snap.Counter("slot/index/inserts_total"); got != int64(inserts) {
		t.Errorf("inserts_total = %d, want %d", got, inserts)
	}
	if got := snap.Counter("slot/index/removes_total"); got != int64(removes) {
		t.Errorf("removes_total = %d, want %d", got, removes)
	}
	if got := snap.Counter("slot/index/splits_total"); got == 0 && inserts > 4 {
		t.Error("target-2 index recorded no splits")
	}
	if got := snap.Gauge("slot/index/buckets"); got != int64(len(ix.buckets)) {
		t.Errorf("buckets gauge = %d, index has %d", got, len(ix.buckets))
	}
	if before == 0 {
		t.Fatal("fixture built an empty list")
	}

	// A cut counts as the list sees it — one removal of K, one insert per
	// non-empty remainder — whichever way the bucket realizes it, so
	// inserts_total and removes_total read the same for every path.
	// slots_moved_total counts the slots actually written: one for K1
	// overwriting K, the shifted slots plus K2 for a rotation, and the
	// in-bucket shifts of a removal and an insert otherwise.
	n := &resource.Node{ID: 1, Performance: 1, Price: 1}
	for _, tc := range []struct {
		name                    string
		list                    *List
		rank                    int
		used                    sim.Interval
		inserts, removes, moved int64
	}{
		{"K1 in place, K2 empty", pathList(), 1, sim.Interval{Start: 20, End: 32}, 1, 1, 1},
		// K1 written (1), K2 inserted at offset 3 of a bucket grown to 5 (2).
		{"K1 in place, K2 in K's bucket", pathList(), 0, sim.Interval{Start: 1, End: 5}, 2, 1, 3},
		// Offsets 0..2 rewritten, K2 last.
		{"K1 empty, K2 rotated", pathList(), 0, sim.Interval{Start: 0, End: 5}, 1, 1, 3},
		// Removal at offset 0 of bucket 0 (3), insert at offset 1 of bucket 1 (4).
		{"K1 empty, K2 in a later bucket", pathList(), 0, sim.Interval{Start: 0, End: 9}, 1, 1, 7},
		{"whole slot used", pathList(), 5, sim.Interval{Start: 10, End: 40}, 0, 1, 2},
		// K1 = [5,8) orders before [5,10): removal at offset 1 (0), insert at 0 (2).
		{"K1 before its predecessor", NewList([]Slot{New(n, 5, 10), New(n, 5, 20)}), 1, sim.Interval{Start: 8, End: 20}, 1, 1, 2},
	} {
		reg := metrics.New()
		ix := NewIndexSize(tc.list, 4, NewIndexMetrics(reg, "cut/"))
		if err := ix.SubtractInterval(tc.list.At(tc.rank), tc.used); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snap := reg.Snapshot()
		got := [3]int64{snap.Counter("cut/inserts_total"), snap.Counter("cut/removes_total"), snap.Counter("cut/slots_moved_total") - int64(tc.list.Len())}
		if want := [3]int64{tc.inserts, tc.removes, tc.moved}; got != want {
			t.Errorf("%s: (inserts, removes, slots moved) = %v, want %v", tc.name, got, want)
		}
		if c := snap.Counter("cut/bucket_copies_total") + snap.Counter("cut/splits_total"); c != 0 {
			t.Errorf("%s: a cut in an owned bucket under the split threshold copied or split %d buckets", tc.name, c)
		}
	}
}

// TestNilIndexMetricsZeroAllocs extends the disabled-instrumentation
// contract to the index: the holder a nil registry resolves to holds nil
// instruments, and every observation on it is free.
func TestNilIndexMetricsZeroAllocs(t *testing.T) {
	m := NewIndexMetrics(nil, "x/")
	if *m != (IndexMetrics{}) {
		t.Error("NewIndexMetrics(nil, ...) should hold nil instruments")
	}
	bks := []*bucket{{slots: make([]Slot, 3)}}
	if avg := testing.AllocsPerRun(1000, func() {
		m.rebuilt(bks)
		m.shape(bks)
		m.Inserts.Inc()
		m.Removes.Add(2)
		m.Splits.Inc()
		m.Drops.Inc()
		m.SlotsMoved.Add(7)
		m.bucketCopied(3)
		_ = NewIndexMetrics(nil, "x/")
	}); avg != 0 {
		t.Errorf("disabled IndexMetrics observations allocate %.1f per run, want 0", avg)
	}
}

// stablePerfOrder is the independent model of a bucket's permutation: the
// offsets of slots stably sorted by performance descending, so equal
// performances keep their offset order.
func stablePerfOrder(slots []Slot) []int32 {
	offs := make([]int32, len(slots))
	for i := range offs {
		offs[i] = int32(i)
	}
	sort.SliceStable(offs, func(i, j int) bool {
		return slots[offs[i]].Performance() > slots[offs[j]].Performance()
	})
	return offs
}

// TestBucketPermutationMatchesStableSort checks every bucket's byPerf
// against stablePerfOrder: buckets built fresh (newBucket, through
// NewIndexSize's tiling) over performances with many ties, with none, and
// with one throughout, and buckets kept up incrementally through random
// inserts, removals and cuts.
func TestBucketPermutationMatchesStableSort(t *testing.T) {
	check := func(label string, ix *Index) {
		t.Helper()
		for bi, b := range ix.buckets {
			if want := stablePerfOrder(b.slots); !slices.Equal(b.byPerf, want) {
				t.Fatalf("%s: bucket %d byPerf %v, stable sort by performance says %v", label, bi, b.byPerf, want)
			}
		}
	}
	for _, distinct := range []int{1, 3, 1000} {
		nodes := make([]*resource.Node, 64)
		for i := range nodes {
			nodes[i] = &resource.Node{Name: fmt.Sprintf("n%d", i), Performance: 1 + float64(i%distinct)/7, Price: 1}
		}
		for _, target := range []int{1, 7, 64, DefaultBucketSize} {
			rng := sim.NewRNG(uint64(distinct*1000 + target))
			var slots []Slot
			for k := 0; k < 600; k++ {
				slots = append(slots, randomSlot(rng, nodes))
			}
			label := fmt.Sprintf("%d distinct, target %d", distinct, target)
			ix := NewIndexSize(NewList(slots), target, nil)
			check(label+", fresh", ix)
			for step := 0; step < 200 && ix.Len() > 0; step++ {
				switch rng.IntN(3) {
				case 0:
					ix.Insert(randomSlot(rng, nodes))
				case 1:
					ix.RemoveAt(rng.IntN(ix.Len()))
				default:
					s := ix.At(rng.IntN(ix.Len()))
					if err := ix.SubtractInterval(s, subtractedInterval(s, rng.IntN)); err != nil {
						t.Fatalf("%s step %d: %v", label, step, err)
					}
				}
				check(fmt.Sprintf("%s, step %d", label, step), ix)
			}
		}
	}
}
