package slot

import (
	"fmt"
	"sort"
	"strings"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Placement is one task's share of a co-allocation window: the vacant slot
// it was carved from and the interval the task actually occupies on that
// slot's node. All placements of a window share the same Used.Start (tasks
// of a parallel job start synchronously); their ends differ on heterogeneous
// nodes — the paper's "window with a rough right edge".
type Placement struct {
	// Source is the vacant slot the placement was carved from, exactly as
	// it appeared in the list at search time (needed for subtraction).
	Source Slot
	// Used is the occupied interval [window start, window start + runtime).
	Used sim.Interval
}

// Runtime returns the task's execution time within this placement.
func (p Placement) Runtime() sim.Duration { return p.Used.Length() }

// Cost returns the placement's usage cost: slot price × runtime.
func (p Placement) Cost() sim.Money { return p.Source.Price * sim.Money(p.Runtime()) }

// Window is a set of N simultaneously starting slots selected for one job —
// the paper's Window class and the unit the batch optimizer chooses among
// ("alternative"). Windows returned by the search algorithms are immutable.
type Window struct {
	// JobName labels the job the window was found for (diagnostics only).
	JobName string
	// Placements holds one entry per required task, in selection order.
	Placements []Placement
}

// Start returns the common start time of all placements.
func (w *Window) Start() sim.Time {
	if len(w.Placements) == 0 {
		return 0
	}
	return w.Placements[0].Used.Start
}

// End returns the latest end among placements — the completion time of the
// task on the slowest node.
func (w *Window) End() sim.Time {
	var end sim.Time
	for _, p := range w.Placements {
		end = end.Max(p.Used.End)
	}
	return end
}

// Length returns the window's time span t(s̄): End - Start, i.e. the runtime
// of the slowest task. This is the job execution time the paper's T(s̄)
// criterion sums.
func (w *Window) Length() sim.Duration {
	if len(w.Placements) == 0 {
		return 0
	}
	return w.End().Sub(w.Start())
}

// Cost returns the window's total usage cost c(s̄): the sum over placements
// of price × runtime. This is what AMP bounds by the job budget S.
func (w *Window) Cost() sim.Money {
	var sum sim.Money
	for _, p := range w.Placements {
		sum += p.Cost()
	}
	return sum
}

// RatePerTick returns the summed price per time unit of the window's slots —
// the "total window cost per time" quantity used in the Section 4 example
// (e.g. W1 has rate 10).
func (w *Window) RatePerTick() sim.Money {
	var sum sim.Money
	for _, p := range w.Placements {
		sum += p.Source.Price
	}
	return sum
}

// MaxSlotPrice returns the highest per-tick price among the window's slots.
// ALP guarantees MaxSlotPrice ≤ C; AMP does not.
func (w *Window) MaxSlotPrice() sim.Money {
	var max sim.Money
	for _, p := range w.Placements {
		if p.Source.Price > max {
			max = p.Source.Price
		}
	}
	return max
}

// Validate checks the window's structural invariants: non-empty, synchronized
// starts, each placement inside its source slot, distinct nodes, and positive
// runtimes.
func (w *Window) Validate() error {
	if len(w.Placements) == 0 {
		return fmt.Errorf("slot: window %q has no placements", w.JobName)
	}
	start := w.Placements[0].Used.Start
	seen := map[*resource.Node]bool{}
	for i, p := range w.Placements {
		if err := p.Source.Validate(); err != nil {
			return fmt.Errorf("slot: window %q placement %d: %w", w.JobName, i, err)
		}
		if p.Used.Start != start {
			return fmt.Errorf("slot: window %q placement %d starts at %v, want synchronized start %v",
				w.JobName, i, p.Used.Start, start)
		}
		if p.Used.Empty() {
			return fmt.Errorf("slot: window %q placement %d has empty usage %v", w.JobName, i, p.Used)
		}
		if !p.Source.Span.ContainsInterval(p.Used) {
			return fmt.Errorf("slot: window %q placement %d usage %v escapes source slot %v",
				w.JobName, i, p.Used, p.Source)
		}
		if seen[p.Source.Node] {
			return fmt.Errorf("slot: window %q places two tasks on node %s", w.JobName, p.Source.Node.Label())
		}
		seen[p.Source.Node] = true
	}
	return nil
}

// NodeLabels returns the sorted labels of the nodes used by the window.
func (w *Window) NodeLabels() []string {
	out := make([]string, 0, len(w.Placements))
	for _, p := range w.Placements {
		out = append(out, p.Source.Node.Label())
	}
	sort.Strings(out)
	return out
}

// UsesNode reports whether the window places a task on the named node.
func (w *Window) UsesNode(label string) bool {
	for _, p := range w.Placements {
		if p.Source.Node.Label() == label {
			return true
		}
	}
	return false
}

// String renders the window compactly, e.g.
// "W(job1)[150,230) rate=10.00 cost=800.00 {cpu1, cpu4}".
func (w *Window) String() string {
	labels := w.NodeLabels()
	return fmt.Sprintf("W(%s)[%v,%v) rate=%v cost=%v {%s}",
		w.JobName, w.Start(), w.End(), w.RatePerTick(), w.Cost(), strings.Join(labels, ", "))
}
