package resource

import (
	"math"
	"testing"

	"ecosched/internal/sim"
)

func TestNodeValidate(t *testing.T) {
	cases := []struct {
		name string
		node *Node
		ok   bool
	}{
		{"valid", &Node{Name: "n", Performance: 1, Price: 2}, true},
		{"free is valid", &Node{Name: "n", Performance: 1, Price: 0}, true},
		{"zero performance", &Node{Name: "n", Performance: 0, Price: 2}, false},
		{"negative performance", &Node{Name: "n", Performance: -1, Price: 2}, false},
		{"NaN performance", &Node{Name: "n", Performance: math.NaN(), Price: 2}, false},
		{"inf performance", &Node{Name: "n", Performance: math.Inf(1), Price: 2}, false},
		{"negative price", &Node{Name: "n", Performance: 1, Price: -1}, false},
		{"NaN price", &Node{Name: "n", Performance: 1, Price: sim.Money(math.NaN())}, false},
	}
	for _, c := range cases {
		if err := c.node.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	var nilNode *Node
	if nilNode.Validate() == nil {
		t.Error("nil node must not validate")
	}
}

func TestNodeRuntime(t *testing.T) {
	cases := []struct {
		perf float64
		time sim.Duration
		want sim.Duration
	}{
		{1.0, 100, 100},
		{2.0, 100, 50},
		{3.0, 100, 34}, // ceil(100/3)
		{1.5, 100, 67}, // ceil(66.67)
		{0.5, 100, 200},
		{10.0, 1, 1}, // clamped to at least one tick
		{1.0, 0, 0},
		{1.0, -5, 0},
	}
	for _, c := range cases {
		n := &Node{Performance: c.perf}
		if got := n.Runtime(c.time); got != c.want {
			t.Errorf("Runtime(P=%v, t=%v) = %v, want %v", c.perf, c.time, got, c.want)
		}
	}
}

func TestNodeMeetsAndLabel(t *testing.T) {
	n := &Node{ID: 3, Performance: 2}
	if n.Label() != "node3" {
		t.Errorf("Label fallback: got %q", n.Label())
	}
	n.Name = "cpu1"
	if n.Label() != "cpu1" {
		t.Errorf("Label: got %q", n.Label())
	}
	if n.String() == "" {
		t.Error("String should render something")
	}
}

func TestNewPool(t *testing.T) {
	p, err := NewPool([]*Node{
		{Name: "a", Performance: 1, Price: 1},
		{Name: "b", Performance: 2, Price: 2},
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if p.Size() != 2 {
		t.Fatalf("Size: got %d", p.Size())
	}
	if p.Node(0).Name != "a" || p.Node(1).Name != "b" {
		t.Error("IDs not assigned sequentially")
	}
	if p.Node(-1) != nil || p.Node(2) != nil {
		t.Error("out-of-range Node lookups must return nil")
	}
	if p.ByName("b") == nil || p.ByName("zz") != nil {
		t.Error("ByName lookup wrong")
	}
}

func TestNewPoolRejectsBadNodes(t *testing.T) {
	cases := []struct {
		name  string
		nodes []*Node
	}{
		{"nil node", []*Node{nil}},
		{"invalid node", []*Node{{Name: "x", Performance: 0, Price: 1}}},
		{"duplicate name", []*Node{
			{Name: "cpu1", Performance: 1, Price: 1},
			{Name: "cpu1", Performance: 2, Price: 2},
		}},
		// An unnamed node's label is node<ID>, which a named node can take.
		{"unnamed label taken by a name", []*Node{
			{Performance: 1, Price: 1},
			{Name: "node0", Performance: 1, Price: 1},
		}},
	}
	for _, tc := range cases {
		if _, err := NewPool(tc.nodes); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestMustNewPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewPool should panic on invalid input")
		}
	}()
	MustNewPool([]*Node{{Name: "x", Performance: -1, Price: 1}})
}

func TestPoolDomainsAndTotalPerformance(t *testing.T) {
	p := MustNewPool([]*Node{
		{Name: "a", Performance: 1, Price: 1, Domain: "west"},
		{Name: "b", Performance: 2, Price: 1, Domain: "east"},
		{Name: "c", Performance: 3, Price: 1, Domain: "west"},
	})
	d := p.Domains()
	if len(d) != 2 || d[0] != "east" || d[1] != "west" {
		t.Errorf("Domains: got %v", d)
	}
}
