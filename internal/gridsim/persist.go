package gridsim

import (
	"fmt"
	"sort"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// TaskState is the exported, data-only form of one booking: the node is
// referenced by label (stable across pool rebuilds, unlike NodeID order
// assumptions), and the owner-credit amount — normally unexported — rides
// along so a restored grid refunds cancellations exactly as the original
// would have.
type TaskState struct {
	Name    string
	Node    string
	Span    sim.Interval
	Local   bool
	Cost    sim.Money
	Charged sim.Money
}

// NodeFailureState records one failed node with its failure time.
type NodeFailureState struct {
	Node string
	At   sim.Time
}

// DomainIncomeState records one administrative domain's income balance.
type DomainIncomeState struct {
	Domain string
	Amount sim.Money
}

// GridState is a complete, self-contained snapshot of the grid's observable
// state: the clock, the failed-node set, every booking, and the income
// ledger. It deliberately mirrors CanonicalState field for field — restoring
// a GridState and serializing the result reproduces the source grid's
// canonical bytes. The mutation epoch and the live vacant stores are absent:
// the epoch is a history counter, not state, and the stores are a cache the
// first publication after a restore rebuilds from the bookings (the
// store-vs-rebuild equivalence suite proves the rebuild is byte-identical).
type GridState struct {
	Now    sim.Time
	Failed []NodeFailureState
	Tasks  []TaskState
	Income []DomainIncomeState
}

// StateWriter receives a grid's observable state part by part, in the order
// GridState lists it: the clock, the failure marks in pool order, the
// bookings in (node, start) order, then the income ledger by domain. The
// export, the canonical serialization and the checkpoint encoder are all
// StateWriters, so every reader walks the grid the same way.
type StateWriter interface {
	Clock(sim.Time)
	Failure(NodeFailureState)
	Booking(TaskState)
	Ledger(DomainIncomeState)
}

// WriteState streams the grid's observable state to w straight from the
// live booking lists, building no GridState. Each part w receives is a
// copy; w must not mutate the grid.
func (g *Grid) WriteState(w StateWriter) {
	w.Clock(g.now)
	if len(g.failed) > 0 {
		for _, n := range g.pool.Nodes() {
			if at, down := g.failed[n.ID]; down {
				w.Failure(NodeFailureState{Node: n.Label(), At: at})
			}
		}
	}
	for _, n := range g.pool.Nodes() {
		list := g.bookings(n.ID)
		if len(list) == 0 {
			continue
		}
		label := n.Label()
		for i := range list {
			t := &list[i]
			w.Booking(TaskState{Name: t.Name, Node: label, Span: t.Span, Local: t.Local, Cost: t.Cost, Charged: t.charged})
		}
	}
	domains := make([]string, 0, len(g.income))
	for d := range g.income {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		w.Ledger(DomainIncomeState{Domain: d, Amount: g.income[d]})
	}
}

// WriteState streams the snapshot to w in the order the live grid's
// WriteState does.
func (st *GridState) WriteState(w StateWriter) {
	w.Clock(st.Now)
	for _, f := range st.Failed {
		w.Failure(f)
	}
	for i := range st.Tasks {
		w.Booking(st.Tasks[i])
	}
	for _, in := range st.Income {
		w.Ledger(in)
	}
}

// ExportState captures the grid's observable state as a GridState. The
// snapshot shares nothing with the grid — mutating either afterwards leaves
// the other untouched. The task list is allocated once, at its final length,
// so the export allocates nothing per booking.
func (g *Grid) ExportState() *GridState {
	st := &GridState{}
	booked := 0
	for id := range g.booked {
		booked += len(g.booked[id].live())
	}
	if booked > 0 {
		st.Tasks = make([]TaskState, 0, booked)
	}
	g.WriteState((*exporter)(st))
	return st
}

// exporter collects a streamed state into the GridState it is.
type exporter GridState

func (e *exporter) Clock(now sim.Time)          { e.Now = now }
func (e *exporter) Failure(f NodeFailureState)  { e.Failed = append(e.Failed, f) }
func (e *exporter) Booking(t TaskState)         { e.Tasks = append(e.Tasks, t) }
func (e *exporter) Ledger(in DomainIncomeState) { e.Income = append(e.Income, in) }

// RestoreState replaces the grid's observable state with the snapshot,
// in place: the clock, failure marks, bookings, and income ledger are
// overwritten wholesale; the pool, sharding assignment, metrics binding, and
// oracle knob survive (they are configuration, reproduced by the caller's
// factory, not state). The live vacant stores are dropped — the next
// publication lazily rebuilds them from the restored bookings — and the
// job→nodes index is rebuilt from them. Restoring
// counts as one mutation for the epoch.
//
// Every task is re-validated structurally (known node, non-empty valid
// span) and the per-node lists are re-sorted by start with overlaps
// rejected, so a corrupted snapshot fails cleanly instead of loading a
// state the booking invariants forbid.
func (g *Grid) RestoreState(st *GridState) error {
	if st == nil {
		return fmt.Errorf("gridsim: nil grid state")
	}
	booked := make([]nodeBookings, g.pool.Size())
	for _, ts := range st.Tasks {
		n := g.pool.ByName(ts.Node)
		if n == nil {
			return fmt.Errorf("gridsim: restore: task %s references unknown node %q", ts.Name, ts.Node)
		}
		if ts.Span.Empty() || !ts.Span.Valid() {
			return fmt.Errorf("gridsim: restore: task %s has empty or invalid span %v", ts.Name, ts.Span)
		}
		booked[n.ID].all = append(booked[n.ID].all, Task{
			Name:    ts.Name,
			Node:    n.ID,
			Span:    ts.Span,
			Local:   ts.Local,
			Cost:    ts.Cost,
			charged: ts.Charged,
		})
	}
	for id := range booked {
		list := booked[id].all
		sort.SliceStable(list, func(i, k int) bool { return list[i].Span.Start < list[k].Span.Start })
		for i := 1; i < len(list); i++ {
			if list[i-1].Span.End > list[i].Span.Start {
				return fmt.Errorf("gridsim: restore: %s %v overlaps %s %v on %s",
					list[i-1].Name, list[i-1].Span, list[i].Name, list[i].Span, g.pool.Node(resource.NodeID(id)).Label())
			}
		}
	}
	failed := make(map[resource.NodeID]sim.Time)
	for _, f := range st.Failed {
		n := g.pool.ByName(f.Node)
		if n == nil {
			return fmt.Errorf("gridsim: restore: failure mark references unknown node %q", f.Node)
		}
		failed[n.ID] = f.At
	}
	income := make(map[string]sim.Money, len(st.Income))
	for _, in := range st.Income {
		income[in.Domain] = in.Amount
	}
	jobNodes := make(map[string][]resource.NodeID)
	for _, n := range g.pool.Nodes() {
		for _, t := range booked[n.ID].all {
			if !t.Local {
				jobNodes[t.Name] = append(jobNodes[t.Name], n.ID)
			}
		}
	}
	g.now = st.Now
	g.booked = booked
	g.jobNodes = jobNodes
	if len(failed) > 0 {
		g.failed = failed
	} else {
		g.failed = nil
	}
	g.income = income
	g.stores = nil
	g.epoch++
	return nil
}
