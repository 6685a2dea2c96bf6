package gridsim

import (
	"slices"

	"ecosched/internal/resource"
)

// nodeBookings is one node's booking list. The live bookings — sorted by
// start and disjoint — are all[head:]; all[:head] is the dead prefix the
// clock expired, zeroed so it holds no task names. Expiring a prefix moves
// head and copies nothing. The live part is copied down (compact) only when
// the dead prefix has grown as long as the live part, or when an insert finds
// the array full: append never reallocates behind a dead prefix, so the array
// grows exactly when the live bookings outgrow it, as a list without a dead
// prefix would. Every slot outside all[head:len(all)] is the zero Task.
type nodeBookings struct {
	all  []Task
	head int
}

// live returns the node's live bookings, sharing the list's storage.
func (b *nodeBookings) live() []Task { return b.all[b.head:] }

// insert places t at live position i and returns the bookings a compaction
// moved first to make room.
func (b *nodeBookings) insert(i int, t Task) int {
	moved := 0
	if b.head > 0 && len(b.all) == cap(b.all) {
		moved = b.compact()
	}
	b.all = append(b.all, Task{})
	live := b.all[b.head:]
	copy(live[i+1:], live[i:])
	live[i] = t
	return moved
}

// delete removes the live booking at position i.
func (b *nodeBookings) delete(i int) {
	b.all = slices.Delete(b.all, b.head+i, b.head+i+1)
}

// truncate keeps the first n live bookings and zeroes the rest, for a filter
// that wrote its survivors to the front of the live list.
func (b *nodeBookings) truncate(n int) {
	end := b.head + n
	clear(b.all[end:])
	b.all = b.all[:end]
}

// expire drops the first k live bookings into the dead prefix, compacting
// once that prefix is as long as what stays live, and returns the bookings
// the compaction moved — never more than it reclaims.
func (b *nodeBookings) expire(k int) int {
	clear(b.all[b.head : b.head+k])
	b.head += k
	if b.head < len(b.all)-b.head {
		return 0
	}
	return b.compact()
}

// compact copies the live bookings down to the front of the array, zeroes
// what they vacated, and returns how many it moved.
func (b *nodeBookings) compact() int {
	n := copy(b.all, b.all[b.head:])
	clear(b.all[n:])
	b.all = b.all[:n]
	b.head = 0
	return n
}

// bookings returns the node's live bookings in start order, sharing the
// grid's storage; nil for an ID outside the pool. Every read of a node's
// bookings goes through it.
func (g *Grid) bookings(id resource.NodeID) []Task {
	if id < 0 || int(id) >= len(g.booked) {
		return nil
	}
	return g.booked[id].live()
}
