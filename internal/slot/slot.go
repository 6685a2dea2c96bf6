// Package slot implements the vacant time-slot substrate the co-allocation
// algorithms operate on: single slots bound to nodes, ordered slot lists
// (sorted by non-decreasing start time, Fig. 1a of the paper), co-allocation
// windows, and the slot-subtraction operation that removes an allocated
// window from the vacant list (Fig. 1b).
package slot

import (
	"fmt"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Slot is a contiguous span of vacant time on a single node. It corresponds
// to the paper's Slot class: the resource it is allocated on, the usage cost
// per time unit (inherited from the node but stored per-slot so generated
// slot lists can price slots directly), and the [Start, End) span.
type Slot struct {
	// Node is the resource the slot is allocated on. Never nil in a valid
	// slot.
	Node *resource.Node
	// Price is the usage cost per time unit for this slot. It normally
	// equals Node.Price; keeping it on the slot lets generators vary prices
	// per span.
	Price sim.Money
	// Span is the half-open vacant interval [Start, End).
	Span sim.Interval
}

// New builds a slot on node covering [start, end) at the node's own price.
func New(node *resource.Node, start, end sim.Time) Slot {
	return Slot{Node: node, Price: node.Price, Span: sim.Interval{Start: start, End: end}}
}

// Start returns the slot's start time.
func (s Slot) Start() sim.Time { return s.Span.Start }

// End returns the slot's end time.
func (s Slot) End() sim.Time { return s.Span.End }

// Length returns the slot's time span.
func (s Slot) Length() sim.Duration { return s.Span.Length() }

// Empty reports whether the slot covers no ticks.
func (s Slot) Empty() bool { return s.Span.Empty() }

// Validate reports an error when the slot is structurally unusable.
func (s Slot) Validate() error {
	if s.Node == nil {
		return fmt.Errorf("slot: slot %v has no node", s.Span)
	}
	if !s.Span.Valid() {
		return fmt.Errorf("slot: slot on %s has invalid span [%v, %v)", s.Node.Label(), s.Span.Start, s.Span.End)
	}
	if s.Price < 0 || !s.Price.IsFinite() {
		return fmt.Errorf("slot: slot on %s has invalid price %v", s.Node.Label(), s.Price)
	}
	return nil
}

// Performance returns the performance rate of the slot's node.
func (s Slot) Performance() float64 { return s.Node.Performance }

// Runtime returns how long a task with the given etalon wall time occupies
// this slot's node.
func (s Slot) Runtime(etalonTime sim.Duration) sim.Duration {
	return s.Node.Runtime(etalonTime)
}

// String renders the slot as "cpu3[100, 250)@1.25".
func (s Slot) String() string {
	label := "?"
	if s.Node != nil {
		label = s.Node.Label()
	}
	return fmt.Sprintf("%s%v@%v", label, s.Span, s.Price)
}
