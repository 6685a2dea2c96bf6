package alloc

import (
	"ecosched/internal/job"
	"ecosched/internal/slot"
)

// linearAlgorithm is an Algorithm with the paper's raw front-to-back scan:
// the reference oracle the indexed scan is pinned against (DESIGN.md §8).
// The searches run the indexed scan (findWindowIndexedStream) only, so the
// linear scans below are test code.
type linearAlgorithm interface {
	Algorithm
	// FindWindow searches list front to back. It returns ok=false when no
	// window exists on the list.
	FindWindow(list *slot.List, j *job.Job) (w *slot.Window, stats Stats, ok bool)
}

// pastDeadline reports whether the scan can stop: with starts non-decreasing
// and a positive deadline, no slot starting at or after the deadline can
// host any task.
func pastDeadline(s slot.Slot, req *job.ResourceRequest) bool {
	return req.Deadline > 0 && s.Start() >= req.Deadline
}

// FindWindow implements the paper's steps 1°–5° by a raw front-to-back
// scan of the list: slots arrive sorted by start time; each suitable slot is
// added to the window under construction; the tentative window start is
// always the start of the last added slot (T_last); candidates whose
// remaining length from T_last no longer covers their runtime are evicted
// (step 3°); the first time the window holds N slots it is returned.
//
// Every slot is visited at most once and every candidate evicted at most
// once, so the scan is linear in the list length (the window never holds
// more than N candidates for ALP). The indexed scan's prefilter applies the
// performance floor and the per-slot price cap this scan checks per slot.
func (ALP) FindWindow(list *slot.List, j *job.Job) (*slot.Window, Stats, bool) {
	var stats Stats
	if list == nil || j.Validate() != nil {
		return nil, stats, false
	}
	req := &j.Request
	needs := !req.Needs.Empty()

	// active holds the window under construction, at most N entries.
	active := make([]candidate, 0, req.Nodes)
	for _, s := range list.Slots() {
		stats.SlotsExamined++
		// Step 2°: conditions a (performance), c (local price), and b
		// (length from the slot's own start, which becomes T_last when
		// the slot is added).
		if pastDeadline(s, req) {
			break
		}
		rt, ok := suitable(s, req, needs)
		if !ok || s.Performance() < req.MinPerformance || s.Price > req.MaxPrice {
			stats.SlotsRejected++
			continue
		}
		c := newCandidate(s, req, rt, stats.SlotsExamined)

		// Adding s moves the window start to T_last = s.Start().
		// Step 3°: evict candidates whose remaining length expired.
		tLast := s.Start()
		kept := active[:0]
		for _, a := range active {
			if a.deadline >= tLast {
				kept = append(kept, a)
			} else {
				stats.CandidatesEvicted++
			}
		}
		active = append(kept, c)

		// Step 4°: stop as soon as the window holds N slots.
		if len(active) == req.Nodes {
			return buildWindow(j.Name, tLast, active), stats, true
		}
	}
	// Ran out of slots before accumulating N: the job is postponed to the
	// next scheduling iteration (step 5° failure branch).
	return nil, stats, false
}

// FindWindow follows the paper's AMP steps 1°–4° by a raw front-to-
// back scan: accumulate suitable slots exactly as ALP does but without the
// per-slot price condition; whenever the window holds at least N candidates,
// check whether the N cheapest fit the job budget; if so, the window is
// formed by those N slots and the rest are conceptually returned to the list
// (they were never removed — the list is immutable during a search).
// Otherwise the scan keeps advancing the window start, evicting expired
// candidates, until the list is exhausted. The budget check is AMP.accept,
// the fold the indexed scan runs too; the index prefilter applies the
// performance floor this scan checks per slot.
func (a AMP) FindWindow(list *slot.List, j *job.Job) (*slot.Window, Stats, bool) {
	var stats Stats
	if list == nil || j.Validate() != nil {
		return nil, stats, false
	}
	req := &j.Request
	needs := !req.Needs.Empty()
	budget := req.Budget()

	alive := make(map[int]candidate) // seq -> candidate
	var byDeadline deadlineHeap
	cheapest := newTopK(req.Nodes)

	for _, s := range list.Slots() {
		stats.SlotsExamined++
		// Step 1°/3°: conditions 2°a and 2°b only — no per-slot price cap.
		if pastDeadline(s, req) {
			break
		}
		rt, ok := suitable(s, req, needs)
		if !ok || s.Performance() < req.MinPerformance {
			stats.SlotsRejected++
			continue
		}
		c := newCandidate(s, req, rt, stats.SlotsExamined)
		if w, ok := a.accept(c, req.Nodes, budget, alive, &byDeadline, cheapest, &stats); ok {
			return buildWindow(j.Name, c.s.Start(), w), stats, true
		}
	}
	return nil, stats, false
}
