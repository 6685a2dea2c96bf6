package slot

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// List is an ordered list of vacant slots sorted by non-decreasing start
// time — the structure from Fig. 1a that both ALP and AMP scan front to back.
// Ties on start time keep a deterministic secondary order (node ID, then end
// time) so experiment runs are reproducible.
//
// List is the immutable input form of that order: one sorted slice, only
// read once built. Generators and codecs produce it, and NewIndex copies it
// into the one mutable slot store, a slot.Index, where the searches cut
// their windows out of it and the grid keeps it live.
//
// The zero value is an empty, ready-to-use list.
type List struct {
	slots []Slot
}

// NewList builds a list from the given slots, dropping empty ones and
// sorting into canonical order.
func NewList(slots []Slot) *List {
	l := &List{slots: make([]Slot, 0, len(slots))}
	for _, s := range slots {
		if !s.Empty() {
			l.slots = append(l.slots, s)
		}
	}
	l.sort()
	return l
}

func less(a, b Slot) bool { return compare(a, b) < 0 }

// compare is the canonical order as a three-way comparison — start time,
// then node ID (nil node first), then end time — the form the slices sorts
// take and the one less is built on.
func compare(a, b Slot) int {
	if a.Start() != b.Start() {
		return cmp.Compare(a.Start(), b.Start())
	}
	if an, bn := nodeID(a), nodeID(b); an != bn {
		return cmp.Compare(an, bn)
	}
	return cmp.Compare(a.End(), b.End())
}

// nodeID is the slot's node ID for ordering, -1 for a nil node.
func nodeID(s Slot) resource.NodeID {
	if s.Node == nil {
		return -1
	}
	return s.Node.ID
}

func (l *List) sort() { slices.SortStableFunc(l.slots, compare) }

// Less reports whether a orders strictly before b in the canonical list order:
// start time, then node ID (nil node first), then end time. It is the total
// order every List maintains, exported so cross-list machinery — the sharded
// search's K-way candidate merge — can compare heads from different lists
// against the same order the lists themselves use.
func Less(a, b Slot) bool { return less(a, b) }

// MergeLists merges already-ordered lists into one canonical list in O(n·K).
// It is the inverse of partitioning a list by node: merging the per-shard
// vacant views yields the exact global view, byte for byte, because the
// canonical order is total and node-disjoint parts never tie. The result owns
// fresh backing storage.
func MergeLists(parts ...*List) *List {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.Len()
		}
	}
	out := &List{slots: make([]Slot, 0, total)}
	idx := make([]int, len(parts))
	for len(out.slots) < total {
		best := -1
		for i, p := range parts {
			if p == nil || idx[i] >= p.Len() {
				continue
			}
			if best < 0 || less(p.slots[idx[i]], parts[best].slots[idx[best]]) {
				best = i
			}
		}
		out.slots = append(out.slots, parts[best].slots[idx[best]])
		idx[best]++
	}
	return out
}

// Len returns the number of slots in the list.
func (l *List) Len() int { return len(l.slots) }

// At returns the i-th slot in start-time order.
func (l *List) At(i int) Slot { return l.slots[i] }

// Slots returns the underlying slice in order. Callers must treat it as
// read-only: a List is never mutated after NewList builds it.
func (l *List) Slots() []Slot { return l.slots }

// Validate checks every slot and the ordering invariant: no slot orders
// before its predecessor under the full canonical order (start, node, end) —
// the order every index search bisects on, not just the start times. Slots
// that tie on all three are accepted in either order.
func (l *List) Validate() error {
	for i, s := range l.slots {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
		if s.Empty() {
			return fmt.Errorf("slot %d: empty slot %v retained in list", i, s)
		}
		if i > 0 && less(s, l.slots[i-1]) {
			return fmt.Errorf("slot %d: canonical order violated (%v after %v)", i, s, l.slots[i-1])
		}
	}
	return nil
}

// OverlapOnSameNode reports whether any two slots on the same node overlap —
// a well-formed vacant list never has such overlaps.
func (l *List) OverlapOnSameNode() bool {
	latest := map[*resource.Node]sim.Time{}
	for _, s := range l.slots {
		// Sorted by start, so it suffices to compare with the furthest
		// end seen so far per node.
		if end, ok := latest[s.Node]; ok && s.Start() < end {
			return true
		}
		if end, ok := latest[s.Node]; !ok || s.End() > end {
			latest[s.Node] = s.End()
		}
	}
	return false
}

// TotalTime returns the summed length of all slots.
func (l *List) TotalTime() sim.Duration {
	var sum sim.Duration
	for _, s := range l.slots {
		sum += s.Length()
	}
	return sum
}

// String renders the list one slot per line.
func (l *List) String() string {
	var b strings.Builder
	for i, s := range l.slots {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%3d: %v", i, s)
	}
	return b.String()
}
