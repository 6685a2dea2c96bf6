package gridsim

import (
	"fmt"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// FailNode marks a node as failed at the given time: its remaining vacancy
// disappears from every subsequent VacantSlots publication, and all VO
// reservations on it that had not finished by the failure instant are
// cancelled and returned so the metascheduler can re-queue the affected
// jobs. Owner-local tasks are the owner's problem and stay recorded.
//
// Failing an already-failed node is a no-op returning no cancellations.
func (g *Grid) FailNode(id resource.NodeID, at sim.Time) ([]Task, error) {
	node := g.pool.Node(id)
	if node == nil {
		return nil, fmt.Errorf("gridsim: failing unknown node %d", id)
	}
	if at < g.now {
		at = g.now
	}
	if g.failed == nil {
		g.failed = make(map[resource.NodeID]sim.Time)
	}
	if _, down := g.failed[id]; down {
		return nil, nil
	}
	g.failed[id] = at
	g.epoch++
	// The failure mark is set before any booking changes: the store drops
	// the node's slots wholesale here, and the cancellation removals below
	// then skip their per-booking restores (storeUnbook is a no-op on a
	// failed node).
	g.storeFail(node)

	var cancelled []Task
	list := g.bookings(id)
	kept := list[:0]
	for _, t := range list {
		if !t.Local && t.Span.End > at {
			cancelled = append(cancelled, t)
			g.income[node.Domain] -= t.charged
			g.jobUnbooked(t)
			continue
		}
		kept = append(kept, t)
	}
	g.booked[id].truncate(len(kept))
	g.metrics.failed(len(cancelled))
	return cancelled, nil
}

// NodeFailed reports whether the node is marked failed.
func (g *Grid) NodeFailed(id resource.NodeID) bool {
	_, down := g.failed[id]
	return down
}

// FailedNodes returns the failed node ids in id order.
func (g *Grid) FailedNodes() []resource.NodeID {
	var out []resource.NodeID
	for _, n := range g.pool.Nodes() {
		if g.NodeFailed(n.ID) {
			out = append(out, n.ID)
		}
	}
	return out
}

// CancelJob removes every VO reservation booked under the given job name
// and returns the cancelled tasks. A parallel job whose window lost one
// placement (e.g. to a node failure) must release its surviving placements
// too — tasks start synchronously, so a partial window is worthless.
//
// Only the job's own nodes are visited, read from the job→nodes index.
// Reservations are removed one at a time, with the store restore applied
// after each removal, so the restore's neighbor derivation always runs
// against a booking list the store is coherent with — required when a job
// holds adjacent reservations on one node. Nodes are visited in pool (ID)
// order: the final booked set depends only on the set removed, but the
// store's bucket writes (and their slots_moved metric), the order of the
// refunds within a domain's float income, and the returned order all follow
// the visiting order, which must not be Go's randomized map order.
func (g *Grid) CancelJob(name string) []Task {
	var out []Task
	// The index shrinks as the loop cancels; walk a copy of its nodes.
	var ids []resource.NodeID
	for _, id := range g.jobNodes[name] {
		if len(ids) == 0 || ids[len(ids)-1] != id {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		node := g.pool.Node(id)
		for i := 0; i < len(g.bookings(id)); {
			t := g.bookings(id)[i]
			if !t.Local && t.Name == name {
				out = append(out, t)
				g.income[node.Domain] -= t.charged
				g.booked[id].delete(i)
				g.jobUnbooked(t)
				g.storeUnbook(node, t.Span)
				g.epoch++
				continue
			}
			i++
		}
	}
	g.metrics.ReservationsCancelled.Add(int64(len(out)))
	return out
}

// RecoverNode clears a node's failure mark: the node re-joins the pool and
// publishes fresh vacancy from the current time on. Reservations cancelled
// by the failure are never resurrected — they were removed at failure time
// and only a new Commit through the scheduler can book the node again.
// Recovering a node that is not failed is a no-op.
func (g *Grid) RecoverNode(id resource.NodeID) error {
	if g.pool.Node(id) == nil {
		return fmt.Errorf("gridsim: recovering unknown node %d", id)
	}
	if _, down := g.failed[id]; !down {
		return nil
	}
	delete(g.failed, id)
	g.epoch++
	g.storeRecover(g.pool.Node(id))
	g.metrics.NodeRecoveries.Inc()
	return nil
}

// RevokeInterval models an owner reclaiming part of a node's schedule (the
// transient counterpart of a full node failure): every VO reservation
// overlapping the span is cancelled and refunded, and the reclaimed span is
// booked as an owner-local task so it is not re-offered as vacancy. Local
// tasks and VO reservations outside the span are untouched. The part of the
// span before the current time is already history and is ignored; a span
// entirely in the past, or on a failed node (which publishes no vacancy and
// holds no live reservations), revokes nothing.
func (g *Grid) RevokeInterval(id resource.NodeID, span sim.Interval) ([]Task, error) {
	node := g.pool.Node(id)
	if node == nil {
		return nil, fmt.Errorf("gridsim: revoking on unknown node %d", id)
	}
	if span.Empty() || !span.Valid() {
		return nil, fmt.Errorf("gridsim: revoking empty or invalid span %v", span)
	}
	if span.Start < g.now {
		span.Start = g.now
	}
	if span.Empty() || g.NodeFailed(id) {
		return nil, nil
	}

	// Cancel overlapping reservations one at a time (see CancelJob for why
	// the store restore must interleave with the removals).
	var cancelled []Task
	for i := 0; i < len(g.bookings(id)); {
		t := g.bookings(id)[i]
		if !t.Local && t.Span.Overlaps(span) {
			cancelled = append(cancelled, t)
			g.income[node.Domain] -= t.charged
			g.booked[id].delete(i)
			g.jobUnbooked(t)
			g.storeUnbook(node, t.Span)
			g.epoch++
			continue
		}
		i++
	}

	// Reclaim the span for the owner: book local tasks over every part of
	// it not already covered by a surviving booking, so the revoked window
	// disappears from future VacantSlots publications.
	free := []sim.Interval{span}
	for _, t := range g.bookings(id) {
		var next []sim.Interval
		for _, iv := range free {
			next = append(next, iv.Subtract(t.Span)...)
		}
		free = next
	}
	name := fmt.Sprintf("reclaim@%d-%d", span.Start, span.End)
	for _, iv := range free {
		if iv.Empty() {
			continue
		}
		if err := g.Book(Task{Name: name, Node: id, Span: iv, Local: true}); err != nil {
			return cancelled, fmt.Errorf("gridsim: reclaiming %v: %w", iv, err)
		}
	}
	g.metrics.revoked(len(cancelled))
	return cancelled, nil
}
