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
