package slot

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// DefaultBucketSize is the target bucket width of an Index. Buckets split at
// twice the target and disappear when emptied, so the live sizes stay within
// (0, 2×target) and a mutation moves one bucket's slots only.
const DefaultBucketSize = 256

// cowHeadroom is the spare capacity of a copied bucket: a subtraction grows a
// bucket by at most one slot, so the copy takes a few before append regrows it.
const cowHeadroom = 8

// maxFree bounds an index's free list of retired buckets. A clock advance of
// the grid's live store retires about as many buckets as the next horizon
// extension tiles, so a steady store cycles a handful through the list; the
// bound only matters when an index shrinks for good.
const maxFree = 64

// owner is an index's write token. It has a size so that distinct tokens have
// distinct addresses.
type owner struct{ _ byte }

// bucket is the unit of storage: one run of consecutive slots in canonical
// order, with the bounds and the performance permutation that let a scan
// skip or thin it. Bucket b holds the ranks following those of buckets
// 0..b-1, so ranks derive from the bucket lengths, front to back, and nothing
// is re-based when a bucket grows or shrinks.
type bucket struct {
	// owner is the token of the one index allowed to write this bucket in
	// place; any other index reaching it copies it first (writable).
	owner *owner
	slots []Slot
	// maxPerf, minPrice, and maxEnd bound the held slots, letting a scan
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

// Index is the vacant-slot store: the canonical slot order (Less: start,
// node, end) held as a sequence of buckets. It answers the scan queries of
// the co-allocation algorithms — "slots in start order with performance at
// least P (and price at most C), before rank r" — without visiting every
// slot, and takes the paper's cut (Fig. 1b: remove K, add K1/K2) by moving
// the slots of one bucket, whatever the size of the store.
//
// The scan-order contract is the load-bearing property: Scan yields exactly
// the slots a front-to-back filter of the canonical list would yield, with
// the same ranks, so the indexed ALP/AMP searches in internal/alloc reproduce
// the linear oracle bit for bit (see the scan-equivalence suite there).
//
// An Index serves one goroutine at a time: scans reuse a scratch buffer held
// on the index. Clones (copy-on-write per bucket, see Clone) are independent:
// any number of goroutines may scan and mutate their own clones while the
// origin is mutated, as long as Clone is called from the origin's goroutine.
//
// Buckets the index stops holding — the front buckets TrimBefore re-tiles,
// the last bucket Extend re-tiles, a bucket split in two or emptied — go to a
// bounded free list when the index owns them outright, and newBucket takes
// its storage from there before allocating (see retire). A warm index that
// trims and extends about as much as it drops therefore allocates no buckets.
type Index struct {
	target  int
	buckets []*bucket
	n       int
	// own is the write token; nil once the index is released (Release).
	own *owner
	pub publication
	m   *IndexMetrics
	// free holds retired buckets for newBucket to reuse (retire).
	free []*bucket
	// scratch serves the selective scan path; grown and counts serve Extend;
	// spare serves Extend's run sort and gathers the slots TrimBefore and
	// Extend re-tile; tiles holds TrimBefore's fresh front buckets; keys
	// serves newBucket.
	scratch []int32
	grown   []growAt
	counts  []int
	spare   []Slot
	tiles   []*bucket
	keys    []perfKey
}

// perfKey is one slot's byPerf sort key: its performance, read out of its
// node once, and its offset in the bucket.
type perfKey struct {
	perf float64
	off  int32
}

// NewIndex builds an index holding a copy of l's slots, with the default
// bucket size; l is not retained. m may be nil to disable instrumentation.
func NewIndex(l *List, m *IndexMetrics) *Index {
	return NewIndexSize(l, DefaultBucketSize, m)
}

// NewIndexSize is NewIndex with an explicit target bucket size (tests use
// tiny targets to force splits and drops).
func NewIndexSize(l *List, target int, m *IndexMetrics) *Index {
	if target < 1 {
		target = 1
	}
	ix := &Index{target: target, own: new(owner), m: orDisabled(m), n: l.Len()}
	ix.buckets = ix.tile(nil, l.slots)
	ix.m.rebuilt(ix.buckets)
	return ix
}

// tile appends to dst fresh target-size buckets holding copies of slots.
func (ix *Index) tile(dst []*bucket, slots []Slot) []*bucket {
	for len(slots) > 0 {
		n := ix.target
		if n > len(slots) {
			n = len(slots)
		}
		dst = append(dst, ix.newBucket(slots[:n]))
		slots = slots[n:]
	}
	return dst
}

// newBucket returns an owned bucket holding a copy of slots, bounds and
// permutation computed from scratch — O(n log n). The permutation sorts
// (performance, offset) keys extracted into the index's scratch buffer, so a
// comparison reads no node; offset breaks performance ties, so the order is
// total and equals a stable sort by performance descending.
//
// The bucket is the last one retired to the free list when there is one, its
// slot and permutation arrays reused when they fit. Its owner is stamped
// afresh: a Clone since its retirement changed the index's token.
func (ix *Index) newBucket(slots []Slot) *bucket {
	var b *bucket
	if k := len(ix.free) - 1; k >= 0 {
		b = ix.free[k]
		ix.free[k] = nil
		ix.free = ix.free[:k]
	} else {
		b = new(bucket)
	}
	b.owner = ix.own
	if cap(b.slots) < len(slots) {
		b.slots = make([]Slot, 0, len(slots)+cowHeadroom)
	}
	b.slots = append(b.slots[:0], slots...)
	b.aggregates()
	keys := slices.Grow(ix.keys[:0], len(slots))
	for off, s := range slots {
		keys = append(keys, perfKey{perf: s.Performance(), off: int32(off)})
	}
	ix.keys = keys
	slices.SortFunc(keys, func(a, c perfKey) int {
		switch {
		case a.perf > c.perf:
			return -1
		case a.perf < c.perf:
			return 1
		}
		return int(a.off - c.off)
	})
	if cap(b.byPerf) < len(slots) {
		b.byPerf = make([]int32, 0, len(slots)+cowHeadroom)
	}
	b.byPerf = b.byPerf[:len(slots)]
	for k, key := range keys {
		b.byPerf[k] = key.off
	}
	ix.m.SlotsMoved.Add(int64(len(slots)))
	return b
}

// retire hands a bucket the index has just stopped holding to the free list.
// Only a bucket stamped with the index's current token goes there: Clone
// re-tokens both sides, so every bucket a clone shares carries an older
// token, and a bucket carrying the current one is held by this index alone.
// Its arrays are then the index's to overwrite. Any other bucket is left to
// the clones still holding it.
func (ix *Index) retire(b *bucket) {
	if b.owner == ix.own && len(ix.free) < maxFree {
		ix.free = append(ix.free, b)
	}
}

// writable returns the bucket at pos, first replacing it with a copy the
// index owns when it is shared.
func (ix *Index) writable(pos int) *bucket {
	b := ix.buckets[pos]
	if b.owner == ix.own {
		return b
	}
	c := *b
	c.owner = ix.own
	c.slots = append(make([]Slot, 0, len(b.slots)+cowHeadroom), b.slots...)
	c.byPerf = append(make([]int32, 0, len(b.byPerf)+cowHeadroom), b.byPerf...)
	ix.buckets[pos] = &c
	ix.m.bucketCopied(len(c.slots))
	return &c
}

// aggregates recomputes the bucket's bounds from its slots.
func (b *bucket) aggregates() {
	b.maxPerf = math.Inf(-1)
	b.minPrice = sim.Money(math.Inf(1))
	b.maxEnd = math.MinInt64
	for _, s := range b.slots {
		b.widen(s)
	}
}

// widen extends the bucket's bounds to cover s.
func (b *bucket) widen(s Slot) {
	if p := s.Performance(); p > b.maxPerf {
		b.maxPerf = p
	}
	if s.Price < b.minPrice {
		b.minPrice = s.Price
	}
	if s.End() > b.maxEnd {
		b.maxEnd = s.End()
	}
}

// latestEnd returns the latest end among the held slots — maxEnd from
// scratch, without touching a node.
func (b *bucket) latestEnd() sim.Time {
	end := sim.Time(math.MinInt64)
	for _, s := range b.slots {
		end = max(end, s.End())
	}
	return end
}

// insert places s at offset off. Existing permutation entries at or past off
// shift up and the new entry lands at its (performance desc, offset asc)
// position — the same place a full re-sort would put it. That order is
// monotone, so the splice point is a binary search: an entry orders after s
// when its performance is lower, or equal at an offset that is at or past off
// before the shift.
func (b *bucket) insert(off int, s Slot) {
	p := s.Performance()
	o32 := int32(off)
	ins := sort.Search(len(b.byPerf), func(i int) bool {
		o := b.byPerf[i]
		po := b.slots[o].Performance()
		return po < p || (po == p && o >= o32)
	})
	b.slots = append(b.slots, Slot{})
	copy(b.slots[off+1:], b.slots[off:])
	b.slots[off] = s
	for i, o := range b.byPerf {
		if o >= o32 {
			b.byPerf[i] = o + 1
		}
	}
	b.byPerf = slices.Insert(b.byPerf, ins, o32)
	b.widen(s)
}

// remove deletes the slot at offset off: later permutation entries shift
// down, their relative order — the one a re-sort would produce — untouched.
// A bound moves only when the removed slot attained it: maxPerf is then read
// off the permutation's head, and minPrice and maxEnd come from one pass that
// touches no node.
func (b *bucket) remove(off int) {
	removed := b.slots[off]
	b.slots = append(b.slots[:off], b.slots[off+1:]...)
	o32 := int32(off)
	dst := b.byPerf[:0]
	for _, o := range b.byPerf {
		if o == o32 {
			continue
		}
		if o > o32 {
			o--
		}
		dst = append(dst, o)
	}
	b.byPerf = dst
	if removed.Performance() == b.maxPerf {
		b.maxPerf = b.slots[b.byPerf[0]].Performance()
	}
	if removed.Price == b.minPrice || removed.End() == b.maxEnd {
		b.minPrice = sim.Money(math.Inf(1))
		b.maxEnd = math.MinInt64
		for _, s := range b.slots {
			b.minPrice = min(b.minPrice, s.Price)
			b.maxEnd = max(b.maxEnd, s.End())
		}
	}
}

// rotate moves the slot at offset from to the later offset to, replacing it
// by s — a slot on the same node at the same price, so the bounds hold as
// they are. The slots in between shift down by one; in the permutation they
// keep their entries' order, and the moved entry passes the entries of equal
// performance it now follows, which sit right after it.
func (b *bucket) rotate(from, to int, s Slot) {
	p := s.Performance()
	f32, t32 := int32(from), int32(to)
	at := sort.Search(len(b.byPerf), func(i int) bool {
		o := b.byPerf[i]
		po := b.slots[o].Performance()
		return po < p || (po == p && o >= f32)
	})
	copy(b.slots[from:to], b.slots[from+1:to+1])
	b.slots[to] = s
	// One unsigned compare tests from < o <= to.
	for i, o := range b.byPerf {
		if uint32(o-f32-1) < uint32(t32-f32) {
			b.byPerf[i] = o - 1
		}
	}
	for ; at+1 < len(b.byPerf); at++ {
		next := b.byPerf[at+1]
		if next >= t32 || b.slots[next].Performance() != p {
			break
		}
		b.byPerf[at] = next
	}
	b.byPerf[at] = t32
}

// last returns the bucket's last slot; buckets are never empty.
func (b *bucket) last() Slot { return b.slots[len(b.slots)-1] }

// seek returns the position of the first slot satisfying after, a predicate
// that is false on a prefix of the canonical order and true on the rest:
// bucket pos, offset off. When no slot satisfies it, pos is len(ix.buckets).
func (ix *Index) seek(after func(Slot) bool) (pos, off int) {
	pos = sort.Search(len(ix.buckets), func(i int) bool { return after(ix.buckets[i].last()) })
	if pos == len(ix.buckets) {
		return pos, 0
	}
	slots := ix.buckets[pos].slots
	return pos, sort.Search(len(slots), func(i int) bool { return after(slots[i]) })
}

// rank converts a bucket position and offset into a rank: the slots held by
// the buckets before pos, plus off.
func (ix *Index) rank(pos, off int) int {
	for _, b := range ix.buckets[:pos] {
		off += len(b.slots)
	}
	return off
}

// locate returns the bucket position and offset of rank r. Callers guarantee
// 0 <= r < Len().
func (ix *Index) locate(r int) (pos, off int) {
	off = r
	for pos, b := range ix.buckets {
		if off < len(b.slots) {
			return pos, off
		}
		off -= len(b.slots)
	}
	panic(fmt.Sprintf("slot: index rank %d out of range (%d slots)", r, ix.n))
}

// find locates a slot equal to s (same node, same span).
func (ix *Index) find(s Slot) (pos, off int, ok bool) {
	pos, off = ix.seek(func(c Slot) bool { return !less(c, s) })
	for ; pos < len(ix.buckets); pos, off = pos+1, 0 {
		for slots := ix.buckets[pos].slots; off < len(slots); off++ {
			c := slots[off]
			if c.Start() != s.Start() {
				return 0, 0, false
			}
			if c.Node == s.Node && c.Span == s.Span {
				return pos, off, true
			}
		}
	}
	return 0, 0, false
}

// Len returns the number of slots held.
func (ix *Index) Len() int {
	ix.live()
	return ix.n
}

// Buckets returns how many buckets hold the slots: the value the Buckets
// gauge records whenever the tiling changes shape.
func (ix *Index) Buckets() int {
	ix.live()
	return len(ix.buckets)
}

// live panics on an index given back by Release: its slots went back to the
// store it was cloned from, so any answer it gave now would be a wrong one.
func (ix *Index) live() {
	if ix.own == nil {
		panic("slot: index used after Release")
	}
}

// At returns the slot at rank i — a walk over the bucket lengths; iterate
// with Each or Scan instead of calling it in a loop.
func (ix *Index) At(i int) Slot {
	ix.live()
	pos, off := ix.locate(i)
	return ix.buckets[pos].slots[off]
}

// Each visits every slot in rank order until fn returns false.
func (ix *Index) Each(fn func(rank int, s Slot) bool) {
	ix.live()
	rank := 0
	for _, b := range ix.buckets {
		for _, s := range b.slots {
			if !fn(rank, s) {
				return
			}
			rank++
		}
	}
}

// List copies the held slots out into a fresh canonical List — O(n); no
// search or store path calls it per operation.
func (ix *Index) List() *List {
	ix.live()
	l := &List{slots: make([]Slot, 0, ix.n)}
	for _, b := range ix.buckets {
		l.slots = append(l.slots, b.slots...)
	}
	return l
}

// Insert adds a slot after every slot that orders before or ties with it.
// Empty slots are ignored, matching the paper's rule that zero-span
// remainders K1/K2 are not added.
func (ix *Index) Insert(s Slot) {
	ix.live()
	if s.Empty() {
		return
	}
	if len(ix.buckets) == 0 {
		ix.m.Inserts.Inc()
		ix.n++
		ix.buckets = append(ix.buckets, ix.newBucket([]Slot{s}))
		ix.m.shape(ix.buckets)
		return
	}
	pos, off := ix.seek(func(c Slot) bool { return less(s, c) })
	ix.insertAt(pos, off, s)
}

// insertAt places s at bucket pos, offset off, the first position seek finds
// past every slot ordering before or tying with s; pos == len(ix.buckets)
// means past every slot. The index holds at least one bucket.
func (ix *Index) insertAt(pos, off int, s Slot) {
	ix.m.Inserts.Inc()
	ix.n++
	if pos == len(ix.buckets) {
		// Past every slot: s extends the last bucket.
		pos--
		off = len(ix.buckets[pos].slots)
	}
	b := ix.writable(pos)
	b.insert(off, s)
	ix.m.SlotsMoved.Add(int64(len(b.slots) - off))
	if len(b.slots) >= 2*ix.target {
		half := len(b.slots) / 2
		ix.buckets = append(ix.buckets, nil)
		copy(ix.buckets[pos+2:], ix.buckets[pos+1:])
		ix.buckets[pos] = ix.newBucket(b.slots[:half])
		ix.buckets[pos+1] = ix.newBucket(b.slots[half:])
		ix.retire(b)
		ix.m.Splits.Inc()
		ix.m.shape(ix.buckets)
	}
}

// removeFrom deletes the slot at offset off of bucket pos, dropping the
// bucket when that empties it.
func (ix *Index) removeFrom(pos, off int) {
	ix.m.Removes.Inc()
	ix.n--
	if len(ix.buckets[pos].slots) == 1 {
		ix.retire(ix.buckets[pos])
		ix.buckets = slices.Delete(ix.buckets, pos, pos+1)
		ix.m.Drops.Inc()
		ix.m.shape(ix.buckets)
		return
	}
	b := ix.writable(pos)
	b.remove(off)
	ix.m.SlotsMoved.Add(int64(len(b.slots) - off))
}

// SubtractInterval removes the usage interval used from the slot equal to
// target, leaving the up-to-two remainder slots K1 = [K.start, used.start)
// and K2 = [used.end, K.end) per Fig. 1b. It returns an error when target is
// not present or used is not contained in target's span.
//
// The cut edits K's bucket in place wherever the order allows. K1 keeps K's
// start and node, so it keeps K's rank, performance and price: it overwrites
// K, and of the bounds only maxEnd can move; K2 beside it is one insert. With
// K1 empty, K2 is K moved to a later rank: inside K's bucket one rotation
// that keeps every bound, past it a removal and an insert. Only K1 ordering
// before K's predecessor (a slot with K's start and node ID and a later end)
// takes a removal and two inserts. The metrics count the cut as the list sees
// it — one removal, one insert per non-empty remainder — however the bucket
// realizes it.
func (ix *Index) SubtractInterval(target Slot, used sim.Interval) error {
	ix.live()
	pos, off, ok := ix.find(target)
	if !ok {
		return fmt.Errorf("slot: subtract: slot %v not found in list", target)
	}
	if !target.Span.ContainsInterval(used) {
		return fmt.Errorf("slot: subtract: interval %v not contained in slot %v", used, target)
	}
	left := target
	left.Span.End = used.Start
	right := target
	right.Span.Start = used.End
	switch {
	case !left.Empty() && ix.followsPredecessor(pos, off, left):
		ix.m.Removes.Inc()
		ix.m.Inserts.Inc()
		b := ix.writable(pos)
		b.slots[off] = left
		if target.End() == b.maxEnd {
			b.maxEnd = b.latestEnd()
		}
		ix.m.SlotsMoved.Inc()
		ix.Insert(right)
	case left.Empty() && !right.Empty():
		ix.moveLater(pos, off, right)
	default:
		ix.removeFrom(pos, off)
		ix.Insert(left)
		ix.Insert(right)
	}
	return nil
}

// followsPredecessor reports whether s, written at bucket pos, offset off,
// orders no earlier than the slot before that position.
func (ix *Index) followsPredecessor(pos, off int, s Slot) bool {
	switch {
	case off > 0:
		return !less(s, ix.buckets[pos].slots[off-1])
	case pos > 0:
		return !less(s, ix.buckets[pos-1].last())
	}
	return true
}

// moveLater replaces the slot at bucket pos, offset off by s, which orders
// after it, at the rank Insert would give s once the slot is gone. When that
// rank falls in the same bucket — up to its end — the move is one rotation;
// otherwise it is a removal and an insert at the position already found.
func (ix *Index) moveLater(pos, off int, s Slot) {
	to, toOff := ix.seek(func(c Slot) bool { return less(s, c) })
	switch {
	case to == pos:
		// Every slot up to off orders before s, so toOff > off.
		toOff--
	case to == pos+1 && toOff == 0:
		toOff = len(ix.buckets[pos].slots) - 1
	default:
		// to > pos: a removal that drops bucket pos shifts it down by one.
		if len(ix.buckets[pos].slots) == 1 {
			to--
		}
		ix.removeFrom(pos, off)
		ix.insertAt(to, toOff, s)
		return
	}
	ix.m.Removes.Inc()
	ix.m.Inserts.Inc()
	ix.writable(pos).rotate(off, toOff, s)
	ix.m.SlotsMoved.Add(int64(toOff - off + 1))
}

// RankAtOrAfter returns the first rank whose slot starts at or after t —
// Len() when every slot starts earlier. With starts non-decreasing this is
// the exact point a deadline-bounded linear scan stops at.
func (ix *Index) RankAtOrAfter(t sim.Time) int {
	ix.live()
	return ix.rank(ix.seek(func(c Slot) bool { return c.Start() >= t }))
}

// CountLess returns how many held slots order strictly before s. For a slot
// present in the index this is its rank; summed over a node-disjoint
// partition of one list it is the slot's rank in the original (slots on
// distinct nodes never compare equal, so the parts are mutually tie-free).
func (ix *Index) CountLess(s Slot) int {
	ix.live()
	return ix.rank(ix.seek(func(c Slot) bool { return !less(c, s) }))
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

// selectiveFactor gates the per-bucket permutation path: when the slots
// passing the performance floor are at most 1/selectiveFactor of the bucket,
// Scan sorts that small prefix of byPerf back into rank order instead of
// walking the bucket.
const selectiveFactor = 4

// Scan visits, in ascending rank order, every slot of rank < limit that
// passes f, calling fn(rank, slot) until fn returns false or the ranks run
// out. The yielded sequence is exactly what filtering a front-to-back walk
// of the canonical list would yield — buckets only change how many slots are
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
	ix.live()
	if limit > ix.n {
		limit = ix.n
	}
	if from < 0 {
		from = 0
	}
	if from >= limit {
		return
	}
	st := probe
	if st == nil {
		st = new(ScanStats)
	}
	base := 0
	for _, bk := range ix.buckets {
		if base >= limit {
			break
		}
		count := len(bk.slots)
		if base+count <= from {
			// Wholly before the resume rank: a prior chunk already covered it.
			base += count
			continue
		}
		span := count
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
			base += count
			continue
		}
		// k = how many bucket members clear the performance floor (at least
		// one: maxPerf is exact); byPerf is performance-descending, so they
		// form its prefix.
		k := sort.Search(count, func(i int) bool {
			return bk.slots[bk.byPerf[i]].Performance() < f.MinPerf
		})
		st.BucketsVisited++
		if k*selectiveFactor <= count {
			// Selective: re-sort the small passing prefix into rank order.
			passing := ix.scratch[:0]
			for _, off := range bk.byPerf[:k] {
				if int(off) >= lo && int(off) < span {
					passing = append(passing, off)
				}
			}
			ix.scratch = passing
			slices.Sort(passing)
			st.SlotsSkipped += span - lo - len(passing)
			for _, off := range passing {
				s := bk.slots[off]
				if f.PriceCap && s.Price > f.MaxPrice {
					st.SlotsSkipped++
					continue
				}
				st.SlotsYielded++
				if !fn(base+int(off), s) {
					return
				}
			}
		} else {
			for off := lo; off < span; off++ {
				s := bk.slots[off]
				if s.Performance() < f.MinPerf || (f.PriceCap && s.Price > f.MaxPrice) {
					st.SlotsSkipped++
					continue
				}
				st.SlotsYielded++
				if !fn(base+off, s) {
					return
				}
			}
		}
		base += count
	}
}

// CheckInvariants verifies the full contract: every bucket is non-empty and
// below the split threshold, the bucket lengths sum to Len(), no slot orders
// before its predecessor under the full canonical order — within a bucket
// and across bucket boundaries, which is what every binary search here relies
// on — bounds cover their slots exactly, and each performance permutation is
// a correctly ordered permutation of its bucket. The fuzz and model suites
// call it after every mutation.
func (ix *Index) CheckInvariants() error {
	if ix.own == nil {
		return fmt.Errorf("slot: index used after Release")
	}
	total := 0
	var prev Slot
	fresh := Index{m: &disabledIndexMetrics} // uninstrumented, owns nothing
	for bi, bk := range ix.buckets {
		count := len(bk.slots)
		if count == 0 {
			return fmt.Errorf("slot: index bucket %d is empty", bi)
		}
		if count >= 2*ix.target {
			return fmt.Errorf("slot: index bucket %d holds %d slots, split threshold is %d", bi, count, 2*ix.target)
		}
		// (performance desc, offset asc) is a total order, so a bucket has
		// exactly one valid permutation: the one a fresh build computes.
		want := fresh.newBucket(bk.slots)
		if !slices.Equal(want.byPerf, bk.byPerf) {
			return fmt.Errorf("slot: index bucket %d permutation stale: have %v, want %v", bi, bk.byPerf, want.byPerf)
		}
		if want.maxPerf != bk.maxPerf || want.minPrice != bk.minPrice || want.maxEnd != bk.maxEnd {
			return fmt.Errorf("slot: index bucket %d aggregates stale: have (perf %v, price %v, end %v), want (%v, %v, %v)",
				bi, bk.maxPerf, bk.minPrice, bk.maxEnd, want.maxPerf, want.minPrice, want.maxEnd)
		}
		for off, s := range bk.slots {
			if total+off > 0 && less(s, prev) {
				return fmt.Errorf("slot: index bucket %d offset %d: canonical order violated (%v after %v)", bi, off, s, prev)
			}
			prev = s
		}
		total += count
	}
	if total != ix.n {
		return fmt.Errorf("slot: index buckets hold %d slots, Len() says %d", total, ix.n)
	}
	return nil
}

// SetMetrics attaches (or, with nil, detaches) the index's maintenance
// instruments. A long-lived index can be handed between owners — the grid's
// live store clones it for each search — and each owner re-targets the clone
// at its own prefix without rebuilding anything.
func (ix *Index) SetMetrics(m *IndexMetrics) { ix.m = orDisabled(m) }

// Clone returns an independent index over the same slots without moving one:
// it copies the bucket pointers, and both sides take a fresh write token, so
// every bucket held at this moment is shared and read-only to both from now
// on. Whichever side first writes to one copies it (that bucket, never the
// store), so either may mutate afterwards without affecting the other. m is
// the clone's metrics sink (nil disables instrumentation); cloning itself
// records nothing, in particular no rebuild. A clone the caller is done with
// goes back through Release.
func (ix *Index) Clone(m *IndexMetrics) *Index {
	ix.live()
	shared := ix.own
	ix.own = new(owner)
	c := &Index{
		target:  ix.target,
		buckets: append(make([]*bucket, 0, len(ix.buckets)+1), ix.buckets...),
		n:       ix.n,
		own:     new(owner),
		m:       orDisabled(m),
	}
	c.pub = publication{origin: ix.own, view: c.own, shared: shared}
	return c
}

// publication records the tokens of one Clone: the fresh tokens of the
// origin and of the clone, and shared, the origin's token just before. A
// bucket stamped shared is one the origin owned at that Clone. No index
// cloned earlier holds it, so the origin and this clone are its only holders
// for as long as neither is cloned again — which the two fresh tokens tell.
type publication struct {
	origin, view, shared *owner
}

// Release takes back a clone of ix once its holder is done with it: the
// buckets ix shares with view alone are stamped ix's own again, so ix's next
// writes to them copy nothing. The rule is conservative: if either side was
// cloned since view's publication (that later clone may hold the same
// buckets) or view is not a clone of ix, nothing is stamped and per-bucket
// copy-on-write runs as without the release. Either way view is emptied:
// any later use of it panics.
func (ix *Index) Release(view *Index) {
	ix.live()
	view.live()
	if view == ix {
		panic("slot: index released into itself")
	}
	if p := view.pub; p.origin == ix.own && p.view == view.own {
		for _, b := range ix.buckets {
			if b.owner == p.shared {
				b.owner = ix.own
			}
		}
	}
	*view = Index{}
}

// RemoveExact deletes the slot equal to s (same node, same span), reporting
// whether it was present. This is the node-restore/boundary-merge primitive:
// callers that know a slot's exact identity (the grid's live store derives it
// from the booking neighbors) remove it in O(log n) instead of scanning.
func (ix *Index) RemoveExact(s Slot) bool {
	ix.live()
	pos, off, ok := ix.find(s)
	if ok {
		ix.removeFrom(pos, off)
	}
	return ok
}

// DropNode removes every slot on the node, returning how many were dropped.
// Node failure is the one event that invalidates slots by identity rather
// than by span, so this reads every bucket once — failures are rare enough
// that the sweep beats carrying a per-node structure everywhere else — and
// writes only the buckets that hold one of the node's slots.
func (ix *Index) DropNode(node *resource.Node) int {
	ix.live()
	removed := 0
	for pos := len(ix.buckets) - 1; pos >= 0; pos-- {
		// A removal may replace the bucket by its copy, or drop it with its
		// last slot — which ends this walk of it, off being 0.
		for off := len(ix.buckets[pos].slots) - 1; off >= 0; off-- {
			if ix.buckets[pos].slots[off].Node == node {
				ix.removeFrom(pos, off)
				removed++
			}
		}
	}
	return removed
}

// TrimBefore advances the index's left edge to t: slots ending at or before
// t are dropped, slots straddling t are re-anchored to start at t, and slots
// starting at or after t are untouched. It returns the dropped and trimmed
// counts.
//
// This is the clock-advance operation of the grid's live store, so it is a
// bulk rewrite rather than per-slot removals and inserts: the buckets holding
// the affected prefix (everything starting before t, plus the existing
// start==t run the re-anchored slots merge into) are replaced by a fresh
// target-size tiling of the survivors, and every bucket past them is kept as
// it is. The resulting order is canonical by construction — every surviving
// prefix slot starts exactly at t, so (node, end) ordering within the merged
// front block reproduces what a full NewList sort would produce. The
// survivors are gathered in the index's spare buffer and the replaced
// buckets retire, so the fresh ones reuse their storage: a warm trim
// allocates nothing.
func (ix *Index) TrimBefore(t sim.Time) (dropped, trimmed int) {
	ix.live()
	if ix.n == 0 || ix.buckets[0].slots[0].Start() >= t {
		return 0, 0
	}
	// [0, endPos:endOff) is the affected prefix: starts at or before t.
	endPos, endOff := ix.seek(func(c Slot) bool { return c.Start() > t })
	front := ix.spare[:0]
	for pos, b := range ix.buckets[:min(endPos+1, len(ix.buckets))] {
		slots := b.slots
		if pos == endPos {
			slots = slots[:endOff]
		}
		for _, s := range slots {
			switch {
			case s.Start() >= t:
			case s.End() > t:
				s.Span.Start = t
				trimmed++
			default:
				dropped++
				continue
			}
			front = append(front, s)
		}
	}
	// All front slots start at t; their (node, end) order is total because a
	// well-formed vacant list never holds two same-node slots alive at t.
	slices.SortStableFunc(front, compare)
	// A bucket straddling the end of the prefix is consumed whole, its
	// surviving tail re-tiled with the front.
	if endPos < len(ix.buckets) && endOff > 0 {
		front = append(front, ix.buckets[endPos].slots[endOff:]...)
		endPos++
	}
	for _, b := range ix.buckets[:endPos] {
		ix.retire(b)
	}
	ix.tiles = ix.tile(ix.tiles[:0], front)
	ix.buckets = slices.Replace(ix.buckets, 0, endPos, ix.tiles...)
	clear(ix.tiles)
	ix.spare = front
	ix.n -= dropped
	ix.m.Removes.Add(int64(dropped))
	ix.m.shape(ix.buckets)
	return dropped, trimmed
}

// Grow names a held slot and the later end an Extend moves it to.
type Grow struct {
	Slot Slot
	End  sim.Time
}

// growAt is a located Grow: the slot's bucket position and offset.
type growAt struct {
	pos, off int
	end      sim.Time
}

// Extend is the horizon-extension operation of the grid's live store: it
// moves each grown slot's end to its new end and appends run after every held
// slot. It sorts run in place and keeps no reference to it.
//
// Neither half re-sorts what the index holds. End is the last key of the
// canonical order (start, node, end), so a grown slot keeps its rank as long
// as it still orders no later than its successor — in a vacant list, where
// no node holds two slots with the same start, it always does. Its bucket is
// made writable and its maxEnd widened; the performance permutation and every
// other slot stay as they are. The run orders after every held slot, so it is
// tiled as fresh target-size buckets behind the held ones, together with the
// last bucket when that is under target — TrimBefore's retiling, at the other
// end, through the same spare buffer and free list.
//
// Misuse returns an error and leaves the index unchanged: a grow whose slot
// is missing, that does not move its end later, that repeats another grow's
// slot or that would reorder the slot past its successor; an empty run slot,
// or two that tie in the canonical order; or a run that does not start
// strictly after the last held slot.
func (ix *Index) Extend(grows []Grow, run []Slot) error {
	ix.live()
	locs := ix.grown[:0]
	for _, g := range grows {
		pos, off, ok := ix.find(g.Slot)
		if !ok {
			return fmt.Errorf("slot: extend: slot %v not found", g.Slot)
		}
		if g.End <= g.Slot.End() {
			return fmt.Errorf("slot: extend: grow of %v to %v does not move its end later", g.Slot, g.End)
		}
		locs = append(locs, growAt{pos: pos, off: off, end: g.End})
	}
	ix.grown = locs
	slices.SortFunc(locs, func(a, b growAt) int {
		if a.pos != b.pos {
			return a.pos - b.pos
		}
		return a.off - b.off
	})
	// last is the last held slot as it will read after the grows.
	var last Slot
	if ix.n > 0 {
		last = ix.buckets[len(ix.buckets)-1].last()
	}
	for k, at := range locs {
		grown := ix.buckets[at.pos].slots[at.off]
		if k > 0 && locs[k-1].pos == at.pos && locs[k-1].off == at.off {
			return fmt.Errorf("slot: extend: slot %v grown twice", grown)
		}
		grown.Span.End = at.end
		pos, off := at.pos, at.off+1
		if off == len(ix.buckets[pos].slots) {
			pos, off = pos+1, 0
		}
		if pos == len(ix.buckets) {
			last = grown
			continue
		}
		// The successor as it will read: grown too when the next grow is it.
		next := ix.buckets[pos].slots[off]
		if k+1 < len(locs) && locs[k+1].pos == pos && locs[k+1].off == off {
			next.Span.End = locs[k+1].end
		}
		if less(next, grown) {
			return fmt.Errorf("slot: extend: grown slot %v would order after its successor %v", grown, next)
		}
	}
	ix.sortRun(run)
	for k, s := range run {
		switch {
		case s.Empty():
			return fmt.Errorf("slot: extend: empty slot %v in run", s)
		case k > 0 && !less(run[k-1], s):
			return fmt.Errorf("slot: extend: run slots %v and %v tie", run[k-1], s)
		case k == 0 && ix.n > 0 && !less(last, s):
			return fmt.Errorf("slot: extend: run starts with %v, not after the last held slot %v", s, last)
		}
	}

	for _, at := range locs {
		b := ix.writable(at.pos)
		b.slots[at.off].Span.End = at.end
		b.maxEnd = max(b.maxEnd, at.end)
	}
	if len(run) == 0 {
		return nil
	}
	ix.n += len(run)
	// A last bucket under target is consumed whole, re-tiled with the run.
	if k := len(ix.buckets) - 1; k >= 0 && len(ix.buckets[k].slots) < ix.target {
		last := ix.buckets[k]
		run = append(append(ix.spare[:0], last.slots...), run...)
		ix.spare = run
		ix.buckets[k] = nil
		ix.buckets = ix.buckets[:k]
		ix.retire(last)
	}
	ix.buckets = ix.tile(ix.buckets, run)
	ix.m.shape(ix.buckets)
	return nil
}

// sortRun sorts an extension's run into canonical order. Its starts fall in
// the newly visible window, usually far fewer distinct ticks than slots, so
// it is counting-sorted on the start and each equal-start group is finished
// by a comparison sort — linear when a group already arrives in node order,
// as the grid emits it. A run whose starts spread wider is comparison-sorted
// whole.
func (ix *Index) sortRun(run []Slot) {
	if len(run) < 2 {
		return
	}
	lo, hi := run[0].Start(), run[0].Start()
	for _, s := range run {
		lo, hi = min(lo, s.Start()), max(hi, s.Start())
	}
	if w := hi.Sub(lo); w < 0 || w >= sim.Duration(4*len(run)) {
		slices.SortFunc(run, compare)
		return
	}
	// first[t-lo] is where the next slot starting at t goes.
	first := slices.Grow(ix.counts[:0], int(hi.Sub(lo))+2)[:hi.Sub(lo)+2]
	clear(first)
	for _, s := range run {
		first[s.Start().Sub(lo)+1]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	in := append(ix.spare[:0], run...)
	for _, s := range in {
		run[first[s.Start().Sub(lo)]] = s
		first[s.Start().Sub(lo)]++
	}
	ix.counts, ix.spare = first, in
	for from := 0; from < len(run); {
		to := from + 1
		for to < len(run) && run[to].Start() == run[from].Start() {
			to++
		}
		slices.SortFunc(run[from:to], compare)
		from = to
	}
}
