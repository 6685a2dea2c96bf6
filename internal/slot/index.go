package slot

import (
	"fmt"
	"math"
	"sort"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// DefaultBucketSize is the target bucket width of an Index. Buckets split at
// twice the target and disappear when emptied, so the live sizes stay within
// (0, 2×target) and a mutation touches one bucket's bookkeeping only.
const DefaultBucketSize = 256

// bucket summarizes one run of consecutive list ranks. Buckets tile the list:
// bucket b covers the count ranks following the ranks of buckets 0..b-1, so a
// scan derives absolute ranks by accumulating counts front to back.
type bucket struct {
	// count is the number of consecutive ranks this bucket covers.
	count int
	// maxPerf, minPrice, and maxEnd bound the covered slots, letting a scan
	// prune the whole bucket against a performance floor, a price cap, or an
	// alive-at-time probe without touching the slots.
	maxPerf  float64
	minPrice sim.Money
	maxEnd   sim.Time
	// byPerf holds the in-bucket offsets ordered by performance descending
	// (offset ascending on ties), so the offsets passing a performance floor
	// are always a prefix — a selective scan reads just that prefix instead
	// of the whole bucket.
	byPerf []int32
}

// Index is a bucketed skip structure over a List that answers the scan
// queries of the co-allocation algorithms — "slots in start order with
// performance at least P (and price at most C), before rank r" — without
// visiting every slot, while preserving the list's exact left-to-right
// earliest-start order. An Index owns its list's mutations: callers that
// subtract windows through the index keep the buckets consistent
// incrementally instead of rebuilding per pass.
//
// The scan-order contract is the load-bearing property: Scan yields exactly
// the slots a front-to-back filter of the raw list would yield, in the same
// rank order, so the indexed ALP/AMP searches in internal/alloc reproduce
// the linear oracle bit for bit (see the scan-equivalence suite there).
//
// An Index is safe for concurrent readers as long as no goroutine mutates
// it; the sharded search gives each producer goroutine an index of its own.
type Index struct {
	list    *List
	target  int
	buckets []bucket
	m       *IndexMetrics
}

// NewIndex builds an index over l with the default bucket size. The index
// assumes sole ownership of l's future mutations: mutate through the index's
// Insert/RemoveAt/Subtract mirrors, never through l directly, or the buckets
// go stale. m may be nil to disable instrumentation.
func NewIndex(l *List, m *IndexMetrics) *Index {
	return NewIndexSize(l, DefaultBucketSize, m)
}

// NewIndexSize is NewIndex with an explicit target bucket size (tests use
// tiny targets to force splits and drops).
func NewIndexSize(l *List, target int, m *IndexMetrics) *Index {
	if target < 1 {
		target = 1
	}
	ix := &Index{list: l, target: target, m: m}
	ix.Rebuild()
	return ix
}

// List returns the indexed list. Callers must treat it as read-only; mutate
// through the index instead.
func (ix *Index) List() *List { return ix.list }

// Len returns the number of indexed slots.
func (ix *Index) Len() int { return ix.list.Len() }

// At returns the slot at rank i.
func (ix *Index) At(i int) Slot { return ix.list.At(i) }

// Rebuild discards every bucket and re-tiles the list into target-size
// buckets — O(n log target). NewIndex uses it for the initial build; callers
// only need it after mutating the underlying list behind the index's back.
func (ix *Index) Rebuild() {
	n := ix.list.Len()
	ix.buckets = ix.buckets[:0]
	for base := 0; base < n; base += ix.target {
		count := ix.target
		if base+count > n {
			count = n - base
		}
		ix.buckets = append(ix.buckets, bucket{count: count})
		ix.refresh(&ix.buckets[len(ix.buckets)-1], base)
	}
	ix.m.rebuilt(ix.buckets)
}

// refresh recomputes a bucket's aggregates and performance permutation from
// the list ranks [base, base+count) — O(count log count). Only Rebuild and
// bucket splits pay for it; single-slot mutations go through the O(count)
// incremental bucketInsert/bucketRemove instead.
func (ix *Index) refresh(bk *bucket, base int) {
	slots := ix.list.slots[base : base+bk.count]
	ix.aggregates(bk, base)
	bk.byPerf = bk.byPerf[:0]
	for off := range slots {
		bk.byPerf = append(bk.byPerf, int32(off))
	}
	sort.Slice(bk.byPerf, func(i, j int) bool {
		pi := slots[bk.byPerf[i]].Performance()
		pj := slots[bk.byPerf[j]].Performance()
		if pi != pj {
			return pi > pj
		}
		return bk.byPerf[i] < bk.byPerf[j]
	})
}

// aggregates recomputes bk's bounds from the list ranks [base, base+count).
func (ix *Index) aggregates(bk *bucket, base int) {
	bk.maxPerf = math.Inf(-1)
	bk.minPrice = sim.Money(math.Inf(1))
	bk.maxEnd = math.MinInt64
	for _, s := range ix.list.slots[base : base+bk.count] {
		if p := s.Performance(); p > bk.maxPerf {
			bk.maxPerf = p
		}
		if s.Price < bk.minPrice {
			bk.minPrice = s.Price
		}
		if s.End() > bk.maxEnd {
			bk.maxEnd = s.End()
		}
	}
}

// bucketInsert folds the slot at local offset off into bk's permutation and
// aggregates after the backing list grew by one at that rank. Existing
// offsets at or past off shift up; the new entry lands at its
// (performance desc, offset asc) position — the same place a full re-sort
// would put it — so the permutation stays byte-identical to refresh's
// without paying the sort.
func (ix *Index) bucketInsert(bk *bucket, base int, off int32) {
	s := ix.list.slots[base+int(off)]
	p := s.Performance()
	for i, o := range bk.byPerf {
		if o >= off {
			bk.byPerf[i] = o + 1
		}
	}
	ins := len(bk.byPerf)
	for i, o := range bk.byPerf {
		po := ix.list.slots[base+int(o)].Performance()
		if po < p || (po == p && o > off) {
			ins = i
			break
		}
	}
	bk.byPerf = append(bk.byPerf, 0)
	copy(bk.byPerf[ins+1:], bk.byPerf[ins:])
	bk.byPerf[ins] = off
	if p > bk.maxPerf {
		bk.maxPerf = p
	}
	if s.Price < bk.minPrice {
		bk.minPrice = s.Price
	}
	if s.End() > bk.maxEnd {
		bk.maxEnd = s.End()
	}
}

// bucketRemove drops local offset off from bk's permutation after the slot
// `removed` left the backing list: later offsets shift down and relative
// order is untouched, which is exactly the order a re-sort would produce.
// Aggregates are recomputed only when the removed slot attained one of them.
func (ix *Index) bucketRemove(bk *bucket, base int, removed Slot, off int32) {
	dst := bk.byPerf[:0]
	for _, o := range bk.byPerf {
		if o == off {
			continue
		}
		if o > off {
			o--
		}
		dst = append(dst, o)
	}
	bk.byPerf = dst
	if removed.Performance() == bk.maxPerf || removed.Price == bk.minPrice ||
		removed.End() == bk.maxEnd {
		ix.aggregates(bk, base)
	}
}

// locate returns the position and base rank of the bucket covering rank r.
// Callers guarantee 0 <= r < Len().
func (ix *Index) locate(r int) (pos, base int) {
	for i := range ix.buckets {
		if r < base+ix.buckets[i].count {
			return i, base
		}
		base += ix.buckets[i].count
	}
	panic(fmt.Sprintf("slot: index rank %d out of range (%d slots)", r, base))
}

// Insert adds a slot through the index, keeping list order and bucket
// bookkeeping consistent. Empty slots are ignored, as with List.Insert.
func (ix *Index) Insert(s Slot) {
	if s.Empty() {
		return
	}
	r := ix.list.insertionRank(s)
	ix.list.insertAt(r, s)
	ix.m.insert()
	if len(ix.buckets) == 0 {
		ix.buckets = append(ix.buckets, bucket{count: 1})
		ix.refresh(&ix.buckets[0], 0)
		ix.m.resized(ix.buckets)
		return
	}
	// A rank equal to the pre-insert length appends past every bucket; fold
	// it into the last one.
	total := 0
	for i := range ix.buckets {
		total += ix.buckets[i].count
	}
	var pos, base int
	if r >= total {
		pos = len(ix.buckets) - 1
		base = total - ix.buckets[pos].count
	} else {
		pos, base = ix.locate(r)
	}
	bk := &ix.buckets[pos]
	bk.count++
	if bk.count >= 2*ix.target {
		// Split into two halves; both are refreshed from scratch.
		left := bk.count / 2
		right := bk.count - left
		ix.buckets = append(ix.buckets, bucket{})
		copy(ix.buckets[pos+2:], ix.buckets[pos+1:])
		ix.buckets[pos] = bucket{count: left}
		ix.buckets[pos+1] = bucket{count: right}
		ix.refresh(&ix.buckets[pos], base)
		ix.refresh(&ix.buckets[pos+1], base+left)
		ix.m.split()
		ix.m.resized(ix.buckets)
		return
	}
	ix.bucketInsert(bk, base, int32(r-base))
}

// RemoveAt deletes the slot at rank i through the index.
func (ix *Index) RemoveAt(i int) {
	pos, base := ix.locate(i)
	removed := ix.list.slots[i]
	ix.list.RemoveAt(i)
	ix.m.remove()
	bk := &ix.buckets[pos]
	bk.count--
	if bk.count == 0 {
		ix.buckets = append(ix.buckets[:pos], ix.buckets[pos+1:]...)
		ix.m.drop()
		ix.m.resized(ix.buckets)
		return
	}
	ix.bucketRemove(bk, base, removed, int32(i-base))
}

// SubtractInterval mirrors List.SubtractInterval through the index: remove
// the slot equal to target and insert the up-to-two remainders K1/K2.
func (ix *Index) SubtractInterval(target Slot, used sim.Interval) error {
	i := ix.list.indexOf(target)
	if i < 0 {
		return fmt.Errorf("slot: subtract: slot %v not found in list", target)
	}
	if !target.Span.ContainsInterval(used) {
		return fmt.Errorf("slot: subtract: interval %v not contained in slot %v", used, target)
	}
	ix.RemoveAt(i)
	left := target
	left.Span = sim.Interval{Start: target.Start(), End: used.Start}
	right := target
	right.Span = sim.Interval{Start: used.End, End: target.End()}
	ix.Insert(left)
	ix.Insert(right)
	return nil
}

// SubtractWindow mirrors List.SubtractWindow through the index.
func (ix *Index) SubtractWindow(w *Window) error {
	for _, p := range w.Placements {
		if err := ix.SubtractInterval(p.Source, p.Used); err != nil {
			return fmt.Errorf("slot: subtract window %q: %w", w.JobName, err)
		}
	}
	return nil
}

// RankAtOrAfter returns the first rank whose slot starts at or after t —
// Len() when every slot starts earlier. With starts non-decreasing this is
// the exact point a deadline-bounded linear scan stops at.
func (ix *Index) RankAtOrAfter(t sim.Time) int {
	return sort.Search(ix.list.Len(), func(i int) bool { return ix.list.slots[i].Start() >= t })
}

// Filter is the per-slot prefilter a Scan applies: a performance floor and,
// when PriceCap is set, a per-slot price cap (ALP's condition 2°c). The
// filter covers exactly the conditions the buckets can prune against; the
// remaining suitability checks (length, deadline completion, node needs)
// stay with the caller.
type Filter struct {
	// MinPerf drops slots whose node performance is below the floor.
	MinPerf float64
	// MaxPrice drops slots priced above the cap when PriceCap is set.
	MaxPrice sim.Money
	// PriceCap enables the MaxPrice condition.
	PriceCap bool
}

// ScanStats counts the work of one Scan — the observability probe behind
// the alloc/<algo>/index/* counters. It never feeds back into search
// decisions, so recording it (or not) cannot perturb scheduling.
type ScanStats struct {
	// BucketsVisited and BucketsPruned split the buckets a scan touched
	// into ones it read slots from and ones its aggregates dismissed whole.
	BucketsVisited int
	BucketsPruned  int
	// SlotsSkipped counts slots the filter (or a pruned bucket) excluded
	// without yielding; SlotsYielded counts calls into the visitor.
	SlotsSkipped int
	SlotsYielded int
}

// add accumulates other into s.
func (s *ScanStats) add(other ScanStats) {
	s.BucketsVisited += other.BucketsVisited
	s.BucketsPruned += other.BucketsPruned
	s.SlotsSkipped += other.SlotsSkipped
	s.SlotsYielded += other.SlotsYielded
}

// selectiveFactor gates the per-bucket permutation path: when the slots
// passing the performance floor are at most 1/selectiveFactor of the bucket,
// Scan sorts that small prefix of byPerf back into rank order instead of
// walking the bucket.
const selectiveFactor = 4

// Scan visits, in ascending rank order, every slot of rank < limit that
// passes f, calling fn(rank, slot) until fn returns false or the ranks run
// out. The yielded sequence is exactly what filtering a front-to-back walk
// of the raw list would yield — buckets only change how many slots are
// touched along the way, never the order or the membership. probe, when
// non-nil, accumulates the traversal work.
func (ix *Index) Scan(f Filter, limit int, probe *ScanStats, fn func(rank int, s Slot) bool) {
	ix.ScanFrom(f, 0, limit, probe, fn)
}

// ScanFrom is Scan resumed at a rank: it visits, in ascending rank order,
// every slot of rank in [from, limit) that passes f. Buckets wholly below the
// resume rank are stepped over without touching their slots (and without
// counting in probe — a resumed scan's work is the work of its own window),
// so a caller chunking one logical scan into consecutive ScanFrom calls
// yields exactly the sequence a single Scan would, visiting each bucket's
// slots at most once overall. The sharded search's per-shard candidate
// cursors are that caller.
func (ix *Index) ScanFrom(f Filter, from, limit int, probe *ScanStats, fn func(rank int, s Slot) bool) {
	if limit > ix.list.Len() {
		limit = ix.list.Len()
	}
	if from < 0 {
		from = 0
	}
	if from >= limit {
		return
	}
	var st ScanStats
	if probe != nil {
		defer func() { probe.add(st) }()
	}
	var scratch []int32
	base := 0
	for bi := range ix.buckets {
		if base >= limit {
			break
		}
		bk := &ix.buckets[bi]
		if base+bk.count <= from {
			// Wholly before the resume rank: a prior chunk already covered it.
			base += bk.count
			continue
		}
		span := bk.count
		if base+span > limit {
			span = limit - base
		}
		// lo is the first in-bucket offset of this scan's window.
		lo := 0
		if from > base {
			lo = from - base
		}
		if bk.maxPerf < f.MinPerf || (f.PriceCap && bk.minPrice > f.MaxPrice) {
			st.BucketsPruned++
			st.SlotsSkipped += span - lo
			base += bk.count
			continue
		}
		// k = how many bucket members clear the performance floor; byPerf
		// is performance-descending, so they form its prefix.
		k := sort.Search(len(bk.byPerf), func(i int) bool {
			return ix.list.slots[base+int(bk.byPerf[i])].Performance() < f.MinPerf
		})
		if k == 0 {
			st.BucketsPruned++
			st.SlotsSkipped += span - lo
			base += bk.count
			continue
		}
		st.BucketsVisited++
		if k*selectiveFactor <= bk.count {
			// Selective: re-sort the small passing prefix into rank order.
			scratch = scratch[:0]
			for _, off := range bk.byPerf[:k] {
				if int(off) >= lo && int(off) < span {
					scratch = append(scratch, off)
				}
			}
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			st.SlotsSkipped += span - lo - len(scratch)
			for _, off := range scratch {
				rank := base + int(off)
				s := ix.list.slots[rank]
				if f.PriceCap && s.Price > f.MaxPrice {
					st.SlotsSkipped++
					continue
				}
				st.SlotsYielded++
				if !fn(rank, s) {
					return
				}
			}
		} else {
			for off := lo; off < span; off++ {
				rank := base + off
				s := ix.list.slots[rank]
				if s.Performance() < f.MinPerf || (f.PriceCap && s.Price > f.MaxPrice) {
					st.SlotsSkipped++
					continue
				}
				st.SlotsYielded++
				if !fn(rank, s) {
					return
				}
			}
		}
		base += bk.count
	}
}

// AliveAt visits, in rank order, every slot alive at time t (start <= t < end)
// with performance at least minPerf — the point-in-time availability query.
// Buckets whose slots all start after t or all end at or before t are
// skipped whole.
func (ix *Index) AliveAt(t sim.Time, minPerf float64, fn func(rank int, s Slot) bool) {
	limit := ix.RankAtOrAfter(t + 1) // ranks at or beyond start strictly after t
	base := 0
	for bi := range ix.buckets {
		if base >= limit {
			return
		}
		bk := &ix.buckets[bi]
		span := bk.count
		if base+span > limit {
			span = limit - base
		}
		if bk.maxEnd <= t || bk.maxPerf < minPerf {
			base += bk.count
			continue
		}
		for off := 0; off < span; off++ {
			s := ix.list.slots[base+off]
			if s.End() <= t || s.Performance() < minPerf {
				continue
			}
			if !fn(base+off, s) {
				return
			}
		}
		base += bk.count
	}
}

// CheckInvariants verifies the full bucket contract: buckets tile the list,
// every bucket is non-empty and below the split threshold, aggregates bound
// their slots exactly, and each performance permutation is a correctly
// ordered permutation of the bucket. The fuzz and model suites call it after
// every mutation.
func (ix *Index) CheckInvariants() error {
	base := 0
	for bi := range ix.buckets {
		bk := &ix.buckets[bi]
		if bk.count <= 0 {
			return fmt.Errorf("slot: index bucket %d has count %d", bi, bk.count)
		}
		if bk.count >= 2*ix.target {
			return fmt.Errorf("slot: index bucket %d holds %d slots, split threshold is %d", bi, bk.count, 2*ix.target)
		}
		if base+bk.count > ix.list.Len() {
			return fmt.Errorf("slot: index bucket %d overruns the list (%d+%d > %d)", bi, base, bk.count, ix.list.Len())
		}
		if len(bk.byPerf) != bk.count {
			return fmt.Errorf("slot: index bucket %d permutation has %d entries for %d slots", bi, len(bk.byPerf), bk.count)
		}
		maxPerf := math.Inf(-1)
		minPrice := sim.Money(math.Inf(1))
		maxEnd := sim.Time(math.MinInt64)
		seen := make([]bool, bk.count)
		for i, off := range bk.byPerf {
			if off < 0 || int(off) >= bk.count || seen[off] {
				return fmt.Errorf("slot: index bucket %d permutation entry %d invalid or duplicated (%d)", bi, i, off)
			}
			seen[off] = true
			if i > 0 {
				prev, cur := ix.list.slots[base+int(bk.byPerf[i-1])], ix.list.slots[base+int(off)]
				if prev.Performance() < cur.Performance() ||
					(prev.Performance() == cur.Performance() && bk.byPerf[i-1] > off) {
					return fmt.Errorf("slot: index bucket %d permutation out of order at %d", bi, i)
				}
			}
		}
		for off := 0; off < bk.count; off++ {
			s := ix.list.slots[base+off]
			if p := s.Performance(); p > maxPerf {
				maxPerf = p
			}
			if s.Price < minPrice {
				minPrice = s.Price
			}
			if s.End() > maxEnd {
				maxEnd = s.End()
			}
		}
		if maxPerf != bk.maxPerf || minPrice != bk.minPrice || maxEnd != bk.maxEnd {
			return fmt.Errorf("slot: index bucket %d aggregates stale: have (perf %v, price %v, end %v), want (%v, %v, %v)",
				bi, bk.maxPerf, bk.minPrice, bk.maxEnd, maxPerf, minPrice, maxEnd)
		}
		base += bk.count
	}
	if base != ix.list.Len() {
		return fmt.Errorf("slot: index buckets cover %d ranks, list has %d", base, ix.list.Len())
	}
	return nil
}

// Buckets returns the current bucket count (for tests and gauges).
func (ix *Index) Buckets() int { return len(ix.buckets) }

// SetMetrics attaches (or, with nil, detaches) the index's maintenance
// instruments. A long-lived index can be handed between owners — the grid's
// live store clones it for each search — and each owner re-targets the clone
// at its own prefix without rebuilding anything.
func (ix *Index) SetMetrics(m *IndexMetrics) { ix.m = m }

// Clone returns an independent copy of the index without re-sorting or
// re-tiling: the backing list is shared copy-on-write (Snapshot), and the
// bucket bookkeeping — counts, aggregates, performance permutations — is
// copied as-is, so the clone answers the exact same scans as the original.
// Either side may mutate afterwards without affecting the other. m is the
// clone's metrics sink (nil disables instrumentation); cloning itself records
// nothing, in particular no rebuild.
func (ix *Index) Clone(m *IndexMetrics) *Index {
	c := &Index{list: ix.list.Snapshot(), target: ix.target, m: m}
	c.buckets = make([]bucket, len(ix.buckets))
	copy(c.buckets, ix.buckets)
	for i := range c.buckets {
		bp := make([]int32, len(ix.buckets[i].byPerf))
		copy(bp, ix.buckets[i].byPerf)
		c.buckets[i].byPerf = bp
	}
	return c
}

// RemoveExact deletes the slot equal to s (same node, same span), reporting
// whether it was present. This is the node-restore/boundary-merge primitive:
// callers that know a slot's exact identity (the grid's live store derives it
// from the booking neighbors) remove it in O(log n) instead of scanning.
func (ix *Index) RemoveExact(s Slot) bool {
	i := ix.list.indexOf(s)
	if i < 0 {
		return false
	}
	ix.RemoveAt(i)
	return true
}

// DropNode removes every slot on the node, returning how many were dropped.
// Node failure is the one event that invalidates slots by identity rather
// than by span, so this walks the whole list once — failures are rare enough
// that the O(n) sweep beats carrying a per-node structure everywhere else.
func (ix *Index) DropNode(node *resource.Node) int {
	removed := 0
	for i := ix.list.Len() - 1; i >= 0; i-- {
		if ix.list.slots[i].Node == node {
			ix.RemoveAt(i)
			removed++
		}
	}
	return removed
}

// TrimBefore advances the index's left edge to t: slots ending at or before
// t are dropped, slots straddling t are re-anchored to start at t, and slots
// starting at or after t are untouched. It returns the dropped and trimmed
// counts.
//
// This is the clock-advance operation of the grid's live store, so it is
// deliberately a bulk rewrite rather than per-slot RemoveAt/Insert calls: the
// affected prefix (everything starting before t, plus the existing start==t
// run the re-anchored slots merge into) is rebuilt once and re-tiled into
// target-size buckets, one O(n) array move total instead of one per slot.
// The resulting order is canonical by construction — every surviving prefix
// slot starts exactly at t, so (node, end) ordering within the merged front
// block reproduces what a full NewList sort would produce.
func (ix *Index) TrimBefore(t sim.Time) (dropped, trimmed int) {
	p := ix.RankAtOrAfter(t)
	if p == 0 {
		return 0, 0
	}
	r2 := ix.RankAtOrAfter(t + 1) // end of the existing start==t run
	front := make([]Slot, 0, r2-p+8)
	for _, s := range ix.list.slots[:p] {
		if s.End() > t {
			s.Span.Start = t
			front = append(front, s)
			trimmed++
		} else {
			dropped++
		}
	}
	front = append(front, ix.list.slots[p:r2]...)
	// All front slots start at t; a strict (node, end) order is total because
	// a well-formed vacant list never holds two same-node slots alive at t.
	sort.Slice(front, func(i, j int) bool { return less(front[i], front[j]) })
	merged := make([]Slot, 0, len(front)+ix.list.Len()-r2)
	merged = append(merged, front...)
	merged = append(merged, ix.list.slots[r2:]...)
	// The fresh backing array is sole-owned by construction; outstanding
	// snapshots keep reading the old one.
	ix.list.slots = merged
	ix.list.shared = false
	ix.retilePrefix(r2, len(front))
	ix.m.removed(dropped)
	return dropped, trimmed
}

// retilePrefix replaces the leading buckets that covered the first oldCovered
// ranks with a fresh target-size tiling of the first newCovered ranks, after
// the caller rewrote that region of the backing list. A bucket straddling the
// oldCovered boundary is consumed whole and its surviving tail re-tiled with
// the new front. Buckets past the region keep their bookkeeping untouched.
func (ix *Index) retilePrefix(oldCovered, newCovered int) {
	nb, covered := 0, 0
	for nb < len(ix.buckets) && covered < oldCovered {
		covered += ix.buckets[nb].count
		nb++
	}
	newCovered += covered - oldCovered
	tail := ix.buckets[nb:]
	fresh := make([]bucket, 0, newCovered/ix.target+1+len(tail))
	for base := 0; base < newCovered; base += ix.target {
		count := ix.target
		if base+count > newCovered {
			count = newCovered - base
		}
		fresh = append(fresh, bucket{count: count})
	}
	nfresh := len(fresh)
	fresh = append(fresh, tail...)
	ix.buckets = fresh
	base := 0
	for i := 0; i < nfresh; i++ {
		ix.refresh(&ix.buckets[i], base)
		base += ix.buckets[i].count
	}
	ix.m.resized(ix.buckets)
}
