// Package alloc implements the paper's primary contribution: slot selection
// and co-allocation algorithms for economic scheduling.
//
// Two single-window search algorithms are provided, both scanning the ordered
// vacant-slot list front to back exactly once (Section 3):
//
//   - ALP (Algorithm based on Local Price): every slot of the window must
//     cost at most the request's per-time-unit price cap C.
//   - AMP (Algorithm based on Maximal job Price): individual slots may exceed
//     C as long as the whole window's usage cost stays within the job budget
//     S = ρ·C·t·N.
//
// On top of a single-window search, FindAlternatives implements the paper's
// multi-pass scheme from Section 2: visit the batch jobs in priority order,
// subtract every found window from the vacant list, and repeat passes until a
// full pass finds nothing — producing, for each job, a set of pairwise
// disjoint execution alternatives for the batch optimizer (internal/dp).
// There is one such loop (multiPass, search.go); FindAlternatives and
// FindAlternativesSharded differ only in how many views of the vacancy it
// scans.
package alloc

import (
	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// Stats counts the work performed by a window search. The counters make the
// linear-complexity claim of Section 3 checkable without timing noise: for
// both algorithms SlotsExamined never exceeds the list length per search and
// every candidate is evicted at most once.
type Stats struct {
	// SlotsExamined is the number of list entries visited by the scan.
	SlotsExamined int
	// SlotsRejected counts slots failing the static suitability conditions
	// (performance, length, and — for ALP — the per-slot price cap).
	SlotsRejected int
	// CandidatesEvicted counts window candidates dropped because their
	// remaining length expired as the window start advanced (step 3°).
	CandidatesEvicted int
	// BudgetChecks counts AMP's cheapest-N budget evaluations.
	BudgetChecks int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.SlotsExamined += other.SlotsExamined
	s.SlotsRejected += other.SlotsRejected
	s.CandidatesEvicted += other.CandidatesEvicted
	s.BudgetChecks += other.BudgetChecks
}

// Algorithm is a single-window slot search: given the current vacancy and a
// job, find one suitable co-allocation window (the earliest one the
// algorithm's policy admits) or report that none exists.
//
// An algorithm is a policy, not a scan: it names the index prefilter and the
// scanState fold, and the searches run them over slot.Index views and cut
// each found window out of them (FindAlternatives). The unexported methods
// seal the interface: ALP and AMP are its only implementations, and every
// search runs them through the same decomposition, which is what lets one
// view be scanned directly and several be merged in canonical order
// (stream.go, shardscan.go). The paper's raw front-to-back scan is the test
// oracle this decomposition is pinned against (linear_test.go).
type Algorithm interface {
	// Name returns the algorithm's short name ("ALP" or "AMP").
	Name() string
	// scanFilter returns the bucket prefilter equivalent to the algorithm's
	// per-slot performance/price rejections.
	scanFilter(req job.ResourceRequest) slot.Filter
	// newScan returns an empty fold for one search to reset per job scan.
	newScan() scanState
}

// candidate is a slot currently inside the sliding window under
// construction, with its precomputed node-local runtime and usage cost.
type candidate struct {
	s slot.Slot
	// runtime is the task execution time on the slot's node.
	runtime sim.Duration
	// cost is the usage cost price × runtime.
	cost sim.Money
	// deadline is the latest window start this slot can still host:
	// slot end − runtime.
	deadline sim.Time
	// seq is a unique id within one search, for the top-K tracker.
	seq int
}

// suitable is the per-slot test of a scan once a slot has passed the
// performance floor (and, for ALP, the price cap): the rest of the paper's
// step 2° — the request's node needs (RAM, disk, OS, tags; Section 2's
// resource-request characteristics) when needs is set, the length from the
// slot's own start, and, for a deadline-carrying request, some start inside
// the slot whose completion meets the deadline. It returns the task's runtime
// on the slot's node, which newCandidate takes rather than computing again.
// The linear oracles and the indexed scans call it alike, so they share one
// source of truth for suitability. Scans read req through a pointer and pass
// needs = !req.Needs.Empty(), evaluated once per scan.
func suitable(s slot.Slot, req *job.ResourceRequest, needs bool) (sim.Duration, bool) {
	if needs && !s.Node.Satisfies(req.Needs) {
		return 0, false
	}
	rt := s.Runtime(req.Time)
	if s.Length() < rt || (req.Deadline > 0 && s.Start().Add(rt) > req.Deadline) {
		return 0, false
	}
	return rt, true
}

// newCandidate is the candidate record of a suitable slot whose task runs rt.
func newCandidate(s slot.Slot, req *job.ResourceRequest, rt sim.Duration, seq int) candidate {
	// The latest feasible window start is bounded by the slot's end and,
	// when the request carries a deadline, by the completion bound too.
	latest := s.End()
	if req.Deadline > 0 {
		latest = min(latest, req.Deadline)
	}
	return candidate{
		s:        s,
		runtime:  rt,
		cost:     s.Price * sim.Money(rt),
		deadline: latest.Add(-sim.Duration(rt)),
		seq:      seq,
	}
}

// buildWindow materializes a window starting at start from the given
// candidates. Callers guarantee every candidate can host from start.
func buildWindow(jobName string, start sim.Time, chosen []candidate) *slot.Window {
	w := &slot.Window{JobName: jobName, Placements: make([]slot.Placement, 0, len(chosen))}
	for _, c := range chosen {
		w.Placements = append(w.Placements, slot.Placement{
			Source: c.s,
			Used:   sim.Interval{Start: start, End: start.Add(c.runtime)},
		})
	}
	return w
}

// scanLimit returns the exclusive rank bound of an indexed scan: the rank a
// deadline-carrying linear scan breaks at (its pastDeadline check, in
// linear_test.go, fires on the first slot starting at or after the
// deadline), or the list length when the request has no deadline.
func scanLimit(ix *slot.Index, req job.ResourceRequest) (limit, n int) {
	n = ix.Len()
	limit = n
	if req.Deadline > 0 {
		limit = ix.RankAtOrAfter(req.Deadline)
	}
	return limit, n
}

// finishScanStats fills the examined/rejected counters of an indexed scan,
// reproducing the linear scan's arithmetic exactly. The linear scan counts
// every visited slot in SlotsExamined and every visited-but-not-accepted
// slot in SlotsRejected, so both are functions of the stopping rank and the
// accepted count alone:
//
//   - success at rank r: r+1 slots visited, r+1−accepted rejected;
//   - failure with a deadline break at rank limit < n: the breaking slot is
//     visited (limit+1 examined) but not rejected (limit−accepted);
//   - failure with the list exhausted: n examined, limit−accepted rejected
//     (limit == n here).
func finishScanStats(stats *Stats, req job.ResourceRequest, limit, n, stopRank, accepted int, found bool) {
	if found {
		stats.SlotsExamined = stopRank + 1
		stats.SlotsRejected = stopRank + 1 - accepted
		return
	}
	if req.Deadline > 0 && limit < n {
		stats.SlotsExamined = limit + 1
	} else {
		stats.SlotsExamined = n
	}
	stats.SlotsRejected = limit - accepted
}
