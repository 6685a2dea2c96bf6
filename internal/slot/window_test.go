package slot

import (
	"strings"
	"testing"

	"ecosched/internal/sim"
)

// makeWindow builds a two-placement window on fresh nodes: a fast node
// finishing early and a slow node defining the rough right edge.
func makeWindow(t *testing.T) *Window {
	t.Helper()
	fast := node("fast", 2, 4)
	slow := node("slow", 1, 1)
	sf := New(fast, 50, 300)
	ss := New(slow, 80, 400)
	w := &Window{JobName: "j1", Placements: []Placement{
		{Source: sf, Used: sim.Interval{Start: 100, End: 150}}, // 100-etalon on P=2 → 50
		{Source: ss, Used: sim.Interval{Start: 100, End: 200}}, // 100-etalon on P=1 → 100
	}}
	if err := w.Validate(); err != nil {
		t.Fatalf("fixture window invalid: %v", err)
	}
	return w
}

func TestWindowGeometry(t *testing.T) {
	w := makeWindow(t)
	if w.Start() != 100 {
		t.Errorf("Start: got %v", w.Start())
	}
	if w.End() != 200 {
		t.Errorf("End (slowest task): got %v, want 200", w.End())
	}
	if w.Length() != 100 {
		t.Errorf("Length: got %v, want 100", w.Length())
	}
}

func TestWindowEconomics(t *testing.T) {
	w := makeWindow(t)
	// cost = 4×50 + 1×100 = 300
	if got := w.Cost(); got != 300 {
		t.Errorf("Cost: got %v, want 300", got)
	}
	if got := w.RatePerTick(); got != 5 {
		t.Errorf("RatePerTick: got %v, want 5", got)
	}
	if got := w.MaxSlotPrice(); got != 4 {
		t.Errorf("MaxSlotPrice: got %v, want 4", got)
	}
}

func TestWindowValidateRejections(t *testing.T) {
	empty := &Window{JobName: "e"}
	if empty.Validate() == nil {
		t.Error("empty window accepted")
	}

	n1, n2 := node("a", 1, 1), node("b", 1, 1)
	s1, s2 := New(n1, 0, 100), New(n2, 0, 100)

	desync := &Window{JobName: "d", Placements: []Placement{
		{Source: s1, Used: sim.Interval{Start: 0, End: 50}},
		{Source: s2, Used: sim.Interval{Start: 10, End: 60}},
	}}
	if desync.Validate() == nil {
		t.Error("desynchronized starts accepted")
	}

	escape := &Window{JobName: "x", Placements: []Placement{
		{Source: s1, Used: sim.Interval{Start: 50, End: 150}},
	}}
	if escape.Validate() == nil {
		t.Error("usage escaping source slot accepted")
	}

	dup := &Window{JobName: "dup", Placements: []Placement{
		{Source: s1, Used: sim.Interval{Start: 0, End: 50}},
		{Source: New(n1, 0, 100), Used: sim.Interval{Start: 0, End: 50}},
	}}
	if dup.Validate() == nil {
		t.Error("two tasks on one node accepted")
	}

	emptyUse := &Window{JobName: "z", Placements: []Placement{
		{Source: s1, Used: sim.Interval{Start: 10, End: 10}},
	}}
	if emptyUse.Validate() == nil {
		t.Error("empty usage accepted")
	}
}

func TestWindowNodeLabelsAndUsesNode(t *testing.T) {
	w := makeWindow(t)
	labels := w.NodeLabels()
	if len(labels) != 2 || labels[0] != "fast" || labels[1] != "slow" {
		t.Errorf("NodeLabels: got %v", labels)
	}
	if !w.UsesNode("slow") || w.UsesNode("cpu9") {
		t.Error("UsesNode lookup wrong")
	}
}

func TestWindowString(t *testing.T) {
	w := makeWindow(t)
	s := w.String()
	for _, frag := range []string{"j1", "[100,200)", "fast", "slow"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
}

func TestPlacementAccessors(t *testing.T) {
	w := makeWindow(t)
	p := w.Placements[0]
	if p.Runtime() != 50 {
		t.Errorf("Runtime: got %v", p.Runtime())
	}
	if p.Cost() != 200 {
		t.Errorf("Cost: got %v, want 200", p.Cost())
	}
}

func TestEmptyWindowDefaults(t *testing.T) {
	w := &Window{}
	if w.Start() != 0 || w.End() != 0 || w.Length() != 0 || w.Cost() != 0 {
		t.Error("empty window should report zero geometry and cost")
	}
}
