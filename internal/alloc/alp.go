package alloc

import (
	"ecosched/internal/job"
	"ecosched/internal/slot"
)

// ALP is the Algorithm based on Local Price of slots (Section 3): the search
// window may only contain slots whose individual price per time unit is at
// most the request's cap C. The returned window is the earliest-starting one
// reachable by the single forward scan.
//
// The zero value is ready to use.
type ALP struct{}

// Name implements Algorithm.
func (ALP) Name() string { return "ALP" }

// FindWindow implements the paper's steps 1°–5° by a raw front-to-back
// scan of the list: slots arrive sorted by start time; each suitable slot is
// added to the window under construction; the tentative window start is
// always the start of the last added slot (T_last); candidates whose
// remaining length from T_last no longer covers their runtime are evicted
// (step 3°); the first time the window holds N slots it is returned.
//
// Every slot is visited at most once and every candidate evicted at most
// once, so the scan is linear in the list length (the window never holds
// more than N candidates for ALP). This is the reference oracle the indexed
// scan is differentially tested against; the searches run the indexed scan
// (findWindowIndexedStream), whose index prefilter applies the performance
// floor and the per-slot price cap.
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
