package alloc

import (
	"container/heap"

	"ecosched/internal/sim"
)

// topK maintains, under insertions and deletions, the K cheapest members of
// a dynamic set together with their cost sum. AMP uses it to evaluate the
// cheapest-N budget check (step 2° of AMP) in amortized O(log m) per slot,
// keeping the whole search near-linear even when the candidate window grows
// far beyond N on expensive lists.
//
// Implementation: two heaps with lazy deletion. "in" is a max-heap holding
// the current K cheapest alive members; "out" is a min-heap with the rest.
// Every membership change bumps a generation counter, so stale heap entries
// are recognized and discarded on pop.
type topK struct {
	k   int
	in  costHeap // max-heap (cheapest K), top = most expensive of them
	out costHeap // min-heap (the rest), top = cheapest of them

	// side records where each alive id currently lives and under which
	// generation; entries whose generation mismatches are stale.
	side map[int]memberState

	gen   int
	sumIn sim.Money
	nIn   int
	total int
}

type memberState struct {
	cost sim.Money
	gen  int
	inIn bool
}

type heapEntry struct {
	cost sim.Money
	id   int
	gen  int
}

// costHeap is a binary heap of heapEntries; max-heap when max is true.
type costHeap struct {
	items []heapEntry
	max   bool
}

func (h *costHeap) Len() int { return len(h.items) }
func (h *costHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.cost != b.cost {
		if h.max {
			return a.cost > b.cost
		}
		return a.cost < b.cost
	}
	// Deterministic tie-break on id keeps experiment runs reproducible.
	if h.max {
		return a.id > b.id
	}
	return a.id < b.id
}
func (h *costHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *costHeap) Push(x any)    { h.items = append(h.items, x.(heapEntry)) }
func (h *costHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

func newTopK(k int) *topK {
	return &topK{
		k:    k,
		in:   costHeap{max: true},
		out:  costHeap{max: false},
		side: make(map[int]memberState),
	}
}

// reset empties the tracker for a new K, keeping its storage: afterwards it
// behaves exactly as newTopK(k).
func (t *topK) reset(k int) {
	clear(t.side)
	*t = topK{k: k, in: costHeap{items: t.in.items[:0], max: true}, out: costHeap{items: t.out.items[:0]}, side: t.side}
}

// Len returns the number of alive members.
func (t *topK) Len() int { return t.total }

// alive reports whether a heap entry still reflects the member's current
// placement.
func (t *topK) alive(e heapEntry, inIn bool) bool {
	st, ok := t.side[e.id]
	return ok && st.gen == e.gen && st.inIn == inIn
}

// peekTop discards stale entries and returns the heap's live top.
func (t *topK) peekTop(h *costHeap, inIn bool) (heapEntry, bool) {
	for h.Len() > 0 {
		e := h.items[0]
		if t.alive(e, inIn) {
			return e, true
		}
		heap.Pop(h)
	}
	return heapEntry{}, false
}

func (t *topK) place(id int, cost sim.Money, inIn bool) {
	t.gen++
	t.side[id] = memberState{cost: cost, gen: t.gen, inIn: inIn}
	e := heapEntry{cost: cost, id: id, gen: t.gen}
	if inIn {
		heap.Push(&t.in, e)
		t.sumIn += cost
		t.nIn++
	} else {
		heap.Push(&t.out, e)
	}
}

// Add inserts a new member. The id must not currently be alive.
func (t *topK) Add(id int, cost sim.Money) {
	t.total++
	if t.nIn < t.k {
		t.place(id, cost, true)
		return
	}
	// Full "in" side: the new member belongs there only if it is cheaper
	// than the most expensive current member.
	if top, ok := t.peekTop(&t.in, true); ok && cost < top.cost {
		t.demote(top)
		t.place(id, cost, true)
		return
	}
	t.place(id, cost, false)
}

// demote moves the given live "in" entry to "out".
func (t *topK) demote(e heapEntry) {
	st := t.side[e.id]
	t.sumIn -= st.cost
	t.nIn--
	t.place(e.id, st.cost, false)
}

// promoteBest refills "in" from the cheapest "out" member, if any.
func (t *topK) promoteBest() {
	if e, ok := t.peekTop(&t.out, false); ok {
		st := t.side[e.id]
		t.place(e.id, st.cost, true)
	}
}

// Remove deletes an alive member by id. Removing an unknown id is a no-op.
func (t *topK) Remove(id int) {
	st, ok := t.side[id]
	if !ok {
		return
	}
	delete(t.side, id)
	t.total--
	if st.inIn {
		t.sumIn -= st.cost
		t.nIn--
		if t.nIn < t.k {
			t.promoteBest() // no-op when "out" is empty
		}
	}
}

// SumCheapest returns the cost sum of the cheapest min(K, Len) members.
func (t *topK) SumCheapest() sim.Money { return t.sumIn }

// HasFullK reports whether at least K members are alive.
func (t *topK) HasFullK() bool { return t.nIn >= t.k }

// CheapestIDs returns the ids of the cheapest min(K, Len) members, in no
// particular order.
func (t *topK) CheapestIDs() []int {
	out := make([]int, 0, t.nIn)
	for id, st := range t.side {
		if st.inIn {
			out = append(out, id)
		}
	}
	return out
}
