package alloc

import (
	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// scanState is one in-progress window assembly: the per-algorithm fold that
// the indexed and sharded scans share. A search creates one (newScan) and
// reset starts it over for every job scan, returning the zeroed Stats the
// fold counts into, so a job scan allocates nothing for its fold state once
// the state has grown to the search's largest job. accept folds one suitable
// candidate — delivered in canonical list order with its seq already
// assigned — into the window under construction, updating eviction/budget
// counters, and returns the window members the first time the algorithm's
// completion test succeeds; the members stay valid until the next reset. The
// fold is a pure function of the candidate sequence: where the candidates
// come from (one index, or a K-way merge of shard indexes) cannot change its
// decisions. That is the memoryless-scan property the sharded search's
// byte-identity rests on.
type scanState interface {
	reset(req *job.ResourceRequest) *Stats
	accept(c candidate) ([]candidate, bool)
}

// alpScan is ALP's fold: the window under construction holds at most N
// candidates; each acceptance advances T_last to the candidate's slot start
// and evicts members whose remaining length expired (steps 2°–4°).
type alpScan struct {
	nodes  int
	active []candidate
	stats  Stats
}

func (st *alpScan) reset(req *job.ResourceRequest) *Stats {
	st.nodes, st.active, st.stats = req.Nodes, st.active[:0], Stats{}
	return &st.stats
}

func (st *alpScan) accept(c candidate) ([]candidate, bool) {
	tLast := c.s.Start()
	kept := st.active[:0]
	for _, a := range st.active {
		if a.deadline >= tLast {
			kept = append(kept, a)
		} else {
			st.stats.CandidatesEvicted++
		}
	}
	st.active = append(kept, c)
	if len(st.active) == st.nodes {
		return st.active, true
	}
	return nil, false
}

func (ALP) scanFilter(req job.ResourceRequest) slot.Filter {
	return slot.Filter{MinPerf: req.MinPerformance, MaxPrice: req.MaxPrice, PriceCap: true}
}

func (ALP) newScan() scanState { return &alpScan{} }

// ampScan is AMP's fold: the deadline-heap/cheapest-K state threaded through
// AMP.accept by both the linear and indexed entry points.
type ampScan struct {
	a          AMP
	nodes      int
	budget     sim.Money
	alive      map[int]candidate
	byDeadline deadlineHeap
	cheapest   *topK
	stats      Stats
}

func (st *ampScan) reset(req *job.ResourceRequest) *Stats {
	st.nodes, st.budget, st.stats = req.Nodes, req.Budget(), Stats{}
	clear(st.alive)
	st.byDeadline = st.byDeadline[:0]
	st.cheapest.reset(req.Nodes)
	return &st.stats
}

func (st *ampScan) accept(c candidate) ([]candidate, bool) {
	return st.a.accept(c, st.nodes, st.budget, st.alive, &st.byDeadline, st.cheapest, &st.stats)
}

func (a AMP) scanFilter(req job.ResourceRequest) slot.Filter {
	return slot.Filter{MinPerf: req.MinPerformance}
}

func (a AMP) newScan() scanState {
	return &ampScan{a: a, alive: make(map[int]candidate), cheapest: newTopK(0)}
}

// findWindowIndexedStream is the indexed scan of one view: prefiltered index
// walk, suitability check, fold, and Stats reconstruction from the stopping
// rank. The performance floor (and, for ALP, the per-slot price cap) is
// delegated to the index's bucket prefilter, so slots failing it are never
// visited; the accepted-candidate sequence is exactly the linear reference
// scan's (FindWindow, linear_test.go), so the window and Stats are
// byte-identical to the linear scan for every input.
// probe, when non-nil, accumulates the index traversal work; it never
// influences the result.
func findWindowIndexedStream(algo Algorithm, st scanState, ix *slot.Index, j *job.Job, probe *slot.ScanStats) (*slot.Window, Stats, bool) {
	if j.Validate() != nil {
		return nil, Stats{}, false
	}
	req := &j.Request
	needs := !req.Needs.Empty()
	limit, n := scanLimit(ix, *req)
	f := algo.scanFilter(*req)
	stats := st.reset(req)

	accepted := 0
	var win *slot.Window
	ix.Scan(f, limit, probe, func(rank int, s slot.Slot) bool {
		rt, ok := suitable(s, req, needs)
		if !ok {
			return true
		}
		accepted++
		// seq mirrors the linear scan's SlotsExamined at acceptance: rank+1.
		c := newCandidate(s, req, rt, rank+1)
		if w, ok := st.accept(c); ok {
			win = buildWindow(j.Name, c.s.Start(), w)
			finishScanStats(stats, *req, limit, n, rank, accepted, true)
			return false
		}
		return true
	})
	if win != nil {
		return win, *stats, true
	}
	finishScanStats(stats, *req, limit, n, 0, accepted, false)
	return nil, *stats, false
}
