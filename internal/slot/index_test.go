package slot

import (
	"testing"

	"ecosched/internal/metrics"
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
					lo := s.Start().Add(sim.Duration(rng.IntN(int(s.Length()))))
					hi := lo.Add(sim.Duration(1 + rng.IntN(int(s.End().Sub(lo)))))
					used := sim.Interval{Start: lo, End: hi}
					if err := ix.SubtractInterval(s, used); err != nil {
						t.Fatalf("target %d seed %d step %d: subtract %v from %v: %v", target, seed, step, used, s, err)
					}
					i := 0
					for i < len(model) && model[i] != s {
						i++
					}
					model = model.removeAt(i)
					left, right := s, s
					left.Span = sim.Interval{Start: s.Start(), End: used.Start}
					right.Span = sim.Interval{Start: used.End, End: s.End()}
					model = model.insert(left).insert(right)
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
				if !model.equalTo(ix.List()) {
					t.Fatalf("target %d seed %d step %d: indexed list diverged from model\nlist:  %v\nmodel: %v",
						target, seed, step, ix.List().Slots(), []Slot(model))
				}
			}
		}
	}
}

// TestIndexScanEarlyStop checks that returning false from the visitor stops
// the scan immediately, in both the selective (permutation) and dense paths.
func TestIndexScanEarlyStop(t *testing.T) {
	rng := sim.NewRNG(3)
	nodes := propNodes(6)
	l := NewList(nil)
	for i := 0; i < 200; i++ {
		l.Insert(randomSlot(rng, nodes))
	}
	ix := NewIndexSize(l, 16, nil)
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
	l := NewList(nil)
	for i := 0; i < 150; i++ {
		l.Insert(randomSlot(rng, nodes))
	}
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
// targets force splits and bucket drops, and the bucket gauge tracks the
// live tiling.
func TestIndexMetricsAccounting(t *testing.T) {
	reg := metrics.New()
	m := NewIndexMetrics(reg, "slot/index/")
	rng := sim.NewRNG(7)
	nodes := propNodes(4)
	l := NewList(nil)
	for i := 0; i < 40; i++ {
		l.Insert(randomSlot(rng, nodes))
	}
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
}

// TestNilIndexMetricsZeroAllocs extends the disabled-instrumentation
// contract to the index: every observation on a nil *IndexMetrics is free.
func TestNilIndexMetricsZeroAllocs(t *testing.T) {
	var m *IndexMetrics
	bks := []*bucket{{slots: make([]Slot, 3)}}
	if avg := testing.AllocsPerRun(1000, func() {
		m.rebuilt(bks)
		m.shape(bks)
		m.insert()
		m.removed(2)
		m.split()
		m.drop()
		m.moved(7)
		m.bucketCopied(3)
	}); avg != 0 {
		t.Errorf("nil IndexMetrics observations allocate %.1f per run, want 0", avg)
	}
	if m := NewIndexMetrics(nil, "x/"); m != nil {
		t.Error("NewIndexMetrics(nil, ...) should return nil")
	}
}
