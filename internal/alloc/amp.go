package alloc

import (
	"container/heap"
	"sort"

	"ecosched/internal/sim"
)

// WindowPolicy selects which N candidates form the window once AMP's budget
// check succeeds. The paper's step 2° takes the N cheapest (by usage cost);
// FirstN is provided as an ablation that mimics ALP's arrival-order choice.
type WindowPolicy int

const (
	// CheapestN picks the N candidates with the lowest usage cost —
	// the paper's AMP step 2°.
	CheapestN WindowPolicy = iota
	// FirstN picks the N earliest-added still-alive candidates.
	FirstN
)

// String names the policy.
func (p WindowPolicy) String() string {
	switch p {
	case CheapestN:
		return "cheapest-N"
	case FirstN:
		return "first-N"
	default:
		return "unknown-policy"
	}
}

// AMP is the Algorithm based on Maximal job Price (Section 3): the per-slot
// price cap C of the request is replaced by a whole-job budget
// S = ρ·C·t·N, so the window may mix cheap and expensive slots as long as
// its total usage cost fits the budget. The request's minimum-performance
// condition still applies to every slot.
//
// The zero value uses the paper's cheapest-N window policy.
type AMP struct {
	// Policy selects the window members among the accumulated candidates;
	// the default (CheapestN) is the paper's algorithm.
	Policy WindowPolicy
}

// Name implements Algorithm.
func (a AMP) Name() string { return "AMP" }

// deadlineHeap orders candidates by eviction deadline so the scan can expire
// exactly the candidates invalidated by an advancing window start.
type deadlineHeap []candidate

func (h deadlineHeap) Len() int { return len(h) }
func (h deadlineHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h deadlineHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x any)     { *h = append(*h, x.(candidate)) }
func (h *deadlineHeap) Pop() any       { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }
func (h deadlineHeap) Peek() candidate { return h[0] }

// accept folds one suitable candidate into the scan state shared by the
// linear and indexed entry points: advance the window start to the
// candidate's slot start, expire candidates that can no longer host from
// there, admit the newcomer, and run the policy's budget check (step 2°).
// It returns the window members when the check succeeds.
func (a AMP) accept(c candidate, nodes int, budget sim.Money,
	alive map[int]candidate, byDeadline *deadlineHeap, cheapest *topK, stats *Stats) ([]candidate, bool) {
	// The window start advances to T_last = c.s.Start(); expire candidates
	// that can no longer host from there.
	tLast := c.s.Start()
	for byDeadline.Len() > 0 && byDeadline.Peek().deadline < tLast {
		dead := heap.Pop(byDeadline).(candidate)
		if _, ok := alive[dead.seq]; ok {
			delete(alive, dead.seq)
			cheapest.Remove(dead.seq)
			stats.CandidatesEvicted++
		}
	}

	alive[c.seq] = c
	heap.Push(byDeadline, c)
	cheapest.Add(c.seq, c.cost)

	// Step 2°: with at least N candidates, the window is formed as soon as
	// the policy's N members fit the budget. For the paper's CheapestN
	// policy that is the cheapest-N sum; the FirstN ablation checks the N
	// earliest-added alive candidates instead.
	if cheapest.HasFullK() {
		stats.BudgetChecks++
		if a.Policy == CheapestN {
			// O(1) acceptance test; members materialized only on success.
			if cheapest.SumCheapest().LessEq(budget) {
				chosen, _ := a.pick(alive, cheapest, nodes)
				return chosen, true
			}
		} else {
			chosen, cost := a.pick(alive, cheapest, nodes)
			if cost.LessEq(budget) {
				return chosen, true
			}
		}
	}
	return nil, false
}

// pick returns the policy's N window members in deterministic order along
// with their total usage cost.
func (a AMP) pick(alive map[int]candidate, cheapest *topK, n int) ([]candidate, sim.Money) {
	var chosen []candidate
	switch a.Policy {
	case FirstN:
		chosen = make([]candidate, 0, len(alive))
		for _, c := range alive {
			chosen = append(chosen, c)
		}
		sort.Slice(chosen, func(i, k int) bool { return chosen[i].seq < chosen[k].seq })
		if len(chosen) > n {
			chosen = chosen[:n]
		}
	default: // CheapestN
		ids := cheapest.CheapestIDs()
		chosen = make([]candidate, 0, len(ids))
		for _, id := range ids {
			chosen = append(chosen, alive[id])
		}
		// Deterministic order: by cost then sequence.
		sort.Slice(chosen, func(i, k int) bool {
			if chosen[i].cost != chosen[k].cost {
				return chosen[i].cost < chosen[k].cost
			}
			return chosen[i].seq < chosen[k].seq
		})
	}
	var total sim.Money
	for _, c := range chosen {
		total += c.cost
	}
	return chosen, total
}
