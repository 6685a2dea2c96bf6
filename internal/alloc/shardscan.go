package alloc

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/slot"
)

// The sharded search partitions the candidate *streams*, not the window
// searches: co-allocation windows may straddle shards, so each shard's index
// produces its own filter-passing candidates (in that shard's canonical
// order, in chunks), and a K-way merge re-interleaves them into the exact
// global canonical order before the per-algorithm fold (scanState)
// assembles windows. The fold is memoryless over the candidate
// sequence, and the merged sequence equals the unsharded index scan's — with
// seq reconstructed as the candidate's global rank + 1 via CountLess across
// the shard indexes — so every window, eviction, budget check, and Stats
// counter is byte-identical to findWindowIndexedStream over the merged list.
// Everything runs on the caller's goroutine.

// Per-round production chunks start small (most scans accept a window within
// the first few dozen ranks) and double per round up to a cap, bounding both
// the wasted overshoot on short scans and the number of refill rounds on deep
// ones.
const (
	shardChunkInit = 32
	shardChunkMax  = 8192
)

// ShardWork accumulates the sharded search's scan-phase accounting: how many
// ranks each shard's cursor walked, how many merged candidates the folds
// consumed, how many refill rounds ran, and the scan-phase critical path —
// the sum over refill rounds of the maximum ranks walked by any one shard
// that round, i.e. the production cost were each shard scanned by its own
// owner. It is the deterministic, hardware-independent number the shard/*
// metrics report. A one-view search runs no merge and leaves every counter
// zero.
type ShardWork struct {
	ScanSlots    []int64
	Merged       int64
	Rounds       int64
	CriticalPath int64
}

// mergeScan is the cross-shard scan state of one search: a cursor per view
// and the refill list, allocated once (newScanner) and reset for every job,
// so a job scan allocates only what its candidates outgrow.
type mergeScan struct {
	cursors, refill []*shardCursor
}

func newMergeScan(views []*slot.Index) *mergeScan {
	ms := &mergeScan{cursors: make([]*shardCursor, len(views)), refill: make([]*shardCursor, 0, len(views))}
	for i, ix := range views {
		ms.cursors[i] = &shardCursor{ix: ix}
	}
	return ms
}

// shardCursor is one shard's production state within a single job scan.
type shardCursor struct {
	ix    *slot.Index
	limit int // deadline-bounded rank limit within this shard
	pos   int // next unexamined rank; ranks < pos are produced or skipped
	buf   []candidate
	head  int
	// front is the slot at rank pos while pos < limit — the canonical key
	// bounding every candidate the cursor may still produce (buffered ones
	// all order strictly before it). Read once per refill.
	front slot.Slot
	// walkedRound is the ranks walked in the current refill round.
	walkedRound int
}

func (cu *shardCursor) exhausted() bool { return cu.head >= len(cu.buf) && cu.pos >= cu.limit }

// produce advances the cursor by up to chunk ranks, buffering candidates that
// pass the filter and the suitability check (suitable, with needs as there).
func (cu *shardCursor) produce(f slot.Filter, req *job.ResourceRequest, needs bool, chunk int) {
	target := cu.pos + chunk
	if target > cu.limit {
		target = cu.limit
	}
	cu.ix.ScanFrom(f, cu.pos, target, nil, func(rank int, s slot.Slot) bool {
		// seq is assigned at consumption time, once the global rank is known.
		if rt, ok := suitable(s, req, needs); ok {
			cu.buf = append(cu.buf, newCandidate(s, req, rt, 0))
		}
		return true
	})
	cu.walkedRound = target - cu.pos
	cu.pos = target
	if cu.pos < cu.limit {
		cu.front = cu.ix.At(cu.pos)
	}
}

// globalRank is the candidate slot's rank in the merged list: the sum of
// slots ordering strictly before it across every shard (its own shard's
// CountLess is exactly its local rank; cross-shard keys never tie because the
// shards are node-disjoint).
func globalRank(cursors []*shardCursor, s slot.Slot) int {
	r := 0
	for _, cu := range cursors {
		r += cu.ix.CountLess(s)
	}
	return r
}

// findWindow runs one job's window scan over the K shard indexes, folding
// with st (reset here), reproducing findWindowIndexedStream over the merged
// list exactly. work, when non-nil, accumulates scan-phase accounting.
func (ms *mergeScan) findWindow(algo Algorithm, st scanState, j *job.Job, work *ShardWork) (*slot.Window, Stats, bool) {
	if j.Validate() != nil {
		return nil, Stats{}, false
	}
	req := &j.Request
	needs := !req.Needs.Empty()
	f := algo.scanFilter(*req)
	stats := st.reset(req)

	cursors := ms.cursors
	totalLimit, totalN := 0, 0
	for _, cu := range cursors {
		limit, n := scanLimit(cu.ix, *req)
		*cu = shardCursor{ix: cu.ix, limit: limit, buf: cu.buf[:0]}
		totalLimit += limit
		totalN += n
	}

	accepted := 0
	chunk := shardChunkInit
	for {
		// Top up every cursor that still has ranks and whose unconsumed
		// buffer dropped below one chunk. Refilling peers alongside the dry
		// cursor that stalled the merge keeps production batched across all
		// shards — one round walks ~chunk ranks on each shard — instead of
		// degrading to one shard per round as cursors drain one at a time; the
		// buffer threshold keeps a slow-draining shard from accumulating
		// unboundedly.
		refill := ms.refill[:0]
		for _, cu := range cursors {
			if cu.pos < cu.limit && len(cu.buf)-cu.head < chunk {
				if cu.head > 0 {
					cu.buf = append(cu.buf[:0], cu.buf[cu.head:]...)
					cu.head = 0
				}
				refill = append(refill, cu)
			}
		}
		if len(refill) > 0 {
			for _, cu := range refill {
				cu.produce(f, req, needs, chunk)
			}
			if work != nil {
				work.Rounds++
				roundMax := 0
				for _, cu := range refill {
					if cu.walkedRound > roundMax {
						roundMax = cu.walkedRound
					}
				}
				work.CriticalPath += int64(roundMax)
				for i, cu := range cursors {
					if cu.walkedRound > 0 {
						if i < len(work.ScanSlots) {
							work.ScanSlots[i] += int64(cu.walkedRound)
						}
						cu.walkedRound = 0
					}
				}
			}
			if chunk < shardChunkMax {
				chunk *= 2
			}
		}

		// Consume buffered candidates in merged canonical order while the
		// merge head provably precedes everything any cursor may still
		// produce (every frontier). Draining a buffer re-enters the refill
		// step, so the merge never starves and never reorders.
		consumedAny := false
		for {
			best := -1
			for i, cu := range cursors {
				if cu.head >= len(cu.buf) {
					continue
				}
				if best < 0 || slot.Less(cu.buf[cu.head].s, cursors[best].buf[cursors[best].head].s) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			headSlot := cursors[best].buf[cursors[best].head].s
			safe := true
			for _, cu := range cursors {
				if cu.pos < cu.limit && !slot.Less(headSlot, cu.front) {
					safe = false
					break
				}
			}
			if !safe {
				break
			}
			c := cursors[best].buf[cursors[best].head]
			cursors[best].head++
			consumedAny = true
			accepted++
			if work != nil {
				work.Merged++
			}
			rank := globalRank(cursors, c.s)
			// seq mirrors the linear scan's SlotsExamined at acceptance:
			// global rank + 1, exactly as the unsharded indexed scan assigns.
			c.seq = rank + 1
			if w, ok := st.accept(c); ok {
				win := buildWindow(j.Name, c.s.Start(), w)
				finishScanStats(stats, *req, totalLimit, totalN, rank, accepted, true)
				return win, *stats, true
			}
		}

		if !consumedAny {
			done := true
			for _, cu := range cursors {
				if !cu.exhausted() {
					done = false
					break
				}
			}
			if done {
				break
			}
			// Not done and nothing consumable: at least one non-exhausted
			// cursor has an empty buffer (in particular the minimum-frontier
			// one — a buffered head below every frontier would be
			// consumable), so the next refill strictly advances it.
		}
	}
	finishScanStats(stats, *req, totalLimit, totalN, 0, accepted, false)
	return nil, *stats, false
}

// FindAlternativesSharded is the multi-pass search over a vacant view
// published as K >= 1 node-disjoint indexes: one view is scanned directly,
// several through the cross-shard merge, and every found window is
// subtracted from the index owning each placement's node. The caller
// transfers ownership of the indexes (they are mutated in place), and with
// several of them shardOf must route every node to the index that holds its
// slots. Results are byte-identical to FindAlternatives over the merged list
// for every input. opts.Prebuilt is rejected: the views are the prebuilt
// state. work, when non-nil, accumulates the merge's scan-phase accounting
// (a single view runs no merge and leaves it untouched).
//
// The parallelism parameter is deprecated and ignored — the search runs on
// the caller's goroutine; it stays only so the frozen benchmark harness
// compiles unchanged (ROADMAP 2(c)). Pass 1.
func FindAlternativesSharded(algo Algorithm, shards []*slot.Index, shardOf func(*resource.Node) int,
	batch *job.Batch, opts SearchOptions, parallelism int, work *ShardWork) (*SearchResult, error) {
	if opts.Prebuilt != nil {
		return nil, fmt.Errorf("alloc: Prebuilt is not used by the sharded search; pass the shard indexes")
	}
	if opts.Metrics == nil {
		opts.Metrics = &disabledSearchMetrics
	}
	return searchViews(algo, shards, shardOf, batch, opts, work)
}
