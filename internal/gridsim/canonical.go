package gridsim

import (
	"fmt"
	"sort"
	"strings"

	"ecosched/internal/sim"
)

// CanonicalState appends a deterministic, complete serialization of the
// grid — clock, failed-node set, every booking in (node, start) order with
// its charged fee, and the per-domain income ledger — to b. Two grids with
// the same observable state produce byte-identical serializations whatever
// history led to them, which is exactly what the model checker's
// state-hashing needs: canonical bytes in, canonical hash out.
func (g *Grid) CanonicalState(b *strings.Builder) {
	fmt.Fprintf(b, "grid now=%d\n", int64(g.now))
	for _, n := range g.pool.Nodes() {
		if at, down := g.failed[n.ID]; down {
			fmt.Fprintf(b, "failed %s at=%d\n", n.Label(), int64(at))
		}
	}
	for _, n := range g.pool.Nodes() {
		for _, t := range g.bookings(n.ID) {
			fmt.Fprintf(b, "task %s node=%s span=%d-%d local=%t cost=%v charged=%v\n",
				t.Name, n.Label(), int64(t.Span.Start), int64(t.Span.End), t.Local, t.Cost, t.charged)
		}
	}
	domains := make([]string, 0, len(g.income))
	for d := range g.income {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		fmt.Fprintf(b, "income %s=%v\n", d, g.income[d])
	}
}

// ForceBook inserts a booking bypassing every rule Book enforces — overlap,
// clock, failed-node — and without crediting the owner. The task is
// appended to its node's list as-is, so a caller can even construct
// out-of-order lists. This is a corruption hook for the invariant auditor's
// self-tests and the model checker's mutation harness: it builds the broken
// states the production paths must never reach, proving the checkers would
// flag them. Production code must only ever book through Book or Commit.
// A task on a node outside the pool has no list to land in and is dropped.
func (g *Grid) ForceBook(t Task) {
	if g.pool.Node(t.Node) != nil {
		b := &g.booked[t.Node]
		g.metrics.bookingsMoved(b.insert(len(b.live()), t))
		g.jobBooked(t)
	}
	g.epoch++
}

// AdjustIncome shifts a domain's income ledger by delta without any
// matching booking or cancellation. Like ForceBook this is a corruption
// hook for checker self-tests (e.g. simulating a double refund that drives
// a ledger negative); no production path calls it.
func (g *Grid) AdjustIncome(domain string, delta sim.Money) {
	g.income[domain] += delta
	g.epoch++
}
