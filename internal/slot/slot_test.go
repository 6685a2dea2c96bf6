package slot

import (
	"strings"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

func node(name string, perf float64, price sim.Money) *resource.Node {
	return &resource.Node{Name: name, Performance: perf, Price: price}
}

func TestNewSlot(t *testing.T) {
	n := node("cpu1", 2, 3)
	s := New(n, 10, 110)
	if s.Start() != 10 || s.End() != 110 || s.Length() != 100 {
		t.Errorf("slot geometry wrong: %v", s)
	}
	if s.Price != 3 {
		t.Errorf("price not inherited from node: %v", s.Price)
	}
	if s.Empty() {
		t.Error("100-tick slot reported empty")
	}
	if s.Performance() != 2 {
		t.Errorf("Performance: got %v", s.Performance())
	}
}

func TestSlotValidate(t *testing.T) {
	n := node("cpu1", 1, 1)
	good := New(n, 0, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("valid slot rejected: %v", err)
	}
	noNode := Slot{Span: sim.Interval{Start: 0, End: 10}}
	if noNode.Validate() == nil {
		t.Error("slot without node accepted")
	}
	invalid := Slot{Node: n, Span: sim.Interval{Start: 10, End: 0}}
	if invalid.Validate() == nil {
		t.Error("inverted span accepted")
	}
	negPrice := Slot{Node: n, Price: -1, Span: sim.Interval{Start: 0, End: 10}}
	if negPrice.Validate() == nil {
		t.Error("negative price accepted")
	}
}

func TestSlotRuntimeHeterogeneous(t *testing.T) {
	fast := New(node("fast", 2, 1), 0, 100)
	slow := New(node("slow", 1, 1), 0, 100)
	if fast.Runtime(100) != 50 {
		t.Errorf("fast runtime: got %v, want 50", fast.Runtime(100))
	}
	if slow.Runtime(100) != 100 {
		t.Errorf("slow runtime: got %v, want 100", slow.Runtime(100))
	}
}

// CanHostFrom reports whether the slot can host a task of the given etalon
// wall time when the task is forced to start at the given time: the start
// must lie inside the slot and the remaining length End-start must cover the
// node-local runtime. This is the paper's step 2°b/3° feasibility check with
// the window-start offset d_k = T_last - T(s_k) already applied.
func (s Slot) CanHostFrom(start sim.Time, etalonTime sim.Duration) bool {
	if start < s.Start() || start >= s.End() {
		return false
	}
	return s.End().Sub(start) >= s.Runtime(etalonTime)
}

// UsageCost returns the cost of running a task with the given etalon wall
// time on this slot: price per tick × node-local runtime.
func (s Slot) UsageCost(etalonTime sim.Duration) sim.Money {
	return s.Price * sim.Money(s.Runtime(etalonTime))
}

func TestSlotCanHostFrom(t *testing.T) {
	s := New(node("cpu1", 1, 1), 100, 200)
	cases := []struct {
		start sim.Time
		time  sim.Duration
		want  bool
	}{
		{100, 100, true},  // exactly fills
		{100, 101, false}, // one tick too long
		{150, 50, true},
		{150, 51, false},
		{99, 10, false}, // before slot start
		{200, 1, false}, // at slot end
		{199, 1, true},  // last tick
		{100, 50, true},
	}
	for _, c := range cases {
		if got := s.CanHostFrom(c.start, c.time); got != c.want {
			t.Errorf("CanHostFrom(%v, %v) = %v, want %v", c.start, c.time, got, c.want)
		}
	}
}

func TestSlotCanHostFromFastNode(t *testing.T) {
	// A performance-2 node halves the runtime, so an 80-tick etalon task
	// fits a 40-tick remainder.
	s := New(node("fast", 2, 1), 0, 100)
	if !s.CanHostFrom(60, 80) {
		t.Error("fast node should host an 80-etalon task in 40 remaining ticks")
	}
	if s.CanHostFrom(61, 80) {
		t.Error("39 remaining ticks must not host a 40-tick runtime")
	}
}

func TestSlotUsageCost(t *testing.T) {
	s := New(node("cpu1", 2, 3), 0, 100)
	// Runtime of an 80-etalon task on P=2 is 40; cost 3 × 40 = 120.
	if got := s.UsageCost(80); got != 120 {
		t.Errorf("UsageCost: got %v, want 120", got)
	}
}

func TestSlotSameNodeAndString(t *testing.T) {
	s1 := New(node("a", 1, 1), 0, 10)
	if !strings.Contains(s1.String(), "a[0, 10)") {
		t.Errorf("String: got %q", s1.String())
	}
	var noNode Slot
	if !strings.Contains(noNode.String(), "?") {
		t.Errorf("String without node: got %q", noNode.String())
	}
}
