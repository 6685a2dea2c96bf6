package experiments

import (
	"strings"
	"testing"

	"ecosched/internal/sim"
)

// TestSection4PaperFacts verifies every numeric statement Section 4 makes
// about the worked example against this repository's reconstruction.
func TestSection4PaperFacts(t *testing.T) {
	res, err := RunSection4()
	if err != nil {
		t.Fatal(err)
	}

	// The environment has six nodes, seven local tasks, and (in this
	// reconstruction) ten vacant slots — matching slots 0..9 of Fig. 2a.
	grid, batch, err := Section4Environment()
	if err != nil {
		t.Fatal(err)
	}
	if grid.Pool().Size() != 6 {
		t.Errorf("nodes: got %d, want 6", grid.Pool().Size())
	}
	if got := len(grid.AllTasks()); got != 7 {
		t.Errorf("local tasks: got %d, want 7", got)
	}
	if res.Slots.Len() != 10 {
		t.Errorf("vacant slots: got %d, want 10", res.Slots.Len())
	}
	if batch.Len() != 3 {
		t.Fatalf("batch size: got %d", batch.Len())
	}

	// W1: {cpu1, cpu4} on [150, 230), total cost per time unit 10.
	w1 := res.FirstWindows["job1"]
	if w1 == nil {
		t.Fatal("no W1 found")
	}
	if w1.Start() != 150 || w1.End() != 230 {
		t.Errorf("W1 span: [%v, %v), want [150, 230)", w1.Start(), w1.End())
	}
	if !w1.UsesNode("cpu1") || !w1.UsesNode("cpu4") {
		t.Errorf("W1 nodes: %v, want cpu1+cpu4", w1.NodeLabels())
	}
	if !w1.RatePerTick().ApproxEq(10) {
		t.Errorf("W1 rate: %v, want 10", w1.RatePerTick())
	}

	// W2: {cpu1, cpu2, cpu4} with total cost 14 per time unit, found on
	// the list with W1 subtracted.
	w2 := res.FirstWindows["job2"]
	if w2 == nil {
		t.Fatal("no W2 found")
	}
	if !w2.UsesNode("cpu1") || !w2.UsesNode("cpu2") || !w2.UsesNode("cpu4") {
		t.Errorf("W2 nodes: %v, want cpu1+cpu2+cpu4", w2.NodeLabels())
	}
	if !w2.RatePerTick().ApproxEq(14) {
		t.Errorf("W2 rate: %v, want 14", w2.RatePerTick())
	}
	if w2.Start() < w1.End() {
		t.Errorf("W2 starts at %v inside W1 [%v, %v) on shared nodes", w2.Start(), w1.Start(), w1.End())
	}

	// W3: a two-node window on [450, 500) within rate 6.
	w3 := res.FirstWindows["job3"]
	if w3 == nil {
		t.Fatal("no W3 found")
	}
	if w3.Start() != 450 || w3.End() != 500 {
		t.Errorf("W3 span: [%v, %v), want [450, 500)", w3.Start(), w3.End())
	}
	if w3.RatePerTick() > 6+sim.MoneyEpsilon {
		t.Errorf("W3 rate: %v, want <= 6", w3.RatePerTick())
	}

	// cpu6 (price 12): reachable by AMP, never by ALP (every job's
	// per-slot cap is below 12).
	if countUsing(res.AMP, "cpu6") == 0 {
		t.Error("AMP found no alternative using cpu6; the paper's key contrast is lost")
	}
	if n := countUsing(res.ALP, "cpu6"); n != 0 {
		t.Errorf("ALP used cpu6 in %d windows; its price caps forbid that", n)
	}

	// Every job has at least one alternative with both algorithms, and
	// AMP finds at least as many in total.
	for _, j := range batch.Jobs() {
		if len(res.AMP.Alternatives[j.Name]) == 0 {
			t.Errorf("AMP: no alternatives for %s", j.Name)
		}
		if len(res.ALP.Alternatives[j.Name]) == 0 {
			t.Errorf("ALP: no alternatives for %s", j.Name)
		}
	}
	if res.AMP.TotalAlternatives() < res.ALP.TotalAlternatives() {
		t.Errorf("AMP total %d < ALP total %d", res.AMP.TotalAlternatives(), res.ALP.TotalAlternatives())
	}
}

// TestSection4WindowBudgets: every window respects its algorithm's economic
// constraint with the Section 4 requests.
func TestSection4WindowBudgets(t *testing.T) {
	res, err := RunSection4()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Batch.Jobs() {
		for _, w := range res.ALP.Alternatives[j.Name] {
			if w.MaxSlotPrice() > j.Request.MaxPrice+sim.MoneyEpsilon {
				t.Errorf("ALP window %v violates per-slot cap %v", w, j.Request.MaxPrice)
			}
		}
		for _, w := range res.AMP.Alternatives[j.Name] {
			if !w.Cost().LessEq(j.Request.Budget()) {
				t.Errorf("AMP window %v violates budget %v", w, j.Request.Budget())
			}
			if len(w.Placements) != j.Request.Nodes {
				t.Errorf("window %v has %d slots, want %d", w, len(w.Placements), j.Request.Nodes)
			}
		}
	}
}

func TestRenderSection4(t *testing.T) {
	res, err := RunSection4()
	if err != nil {
		t.Fatal(err)
	}
	grid, _, err := Section4Environment()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderSection4(res, grid)
	for _, frag := range []string{"cpu1", "cpu6", "p7", "W1", "Fig. 2b", "Fig. 3", "AMP"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}
