package alloc

import (
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// mkNode builds a test node.
func mkNode(name string, perf float64, price sim.Money) *resource.Node {
	return &resource.Node{Name: name, Performance: perf, Price: price}
}

// mkJob builds a test job with the given request.
func mkJob(name string, n int, t sim.Duration, minPerf float64, maxPrice sim.Money) *job.Job {
	return &job.Job{Name: name, Priority: 1, Request: job.ResourceRequest{
		Nodes: n, Time: t, MinPerformance: minPerf, MaxPrice: maxPrice,
	}}
}

func TestALPFindsEarliestPair(t *testing.T) {
	a := mkNode("a", 1, 1)
	b := mkNode("b", 1, 2)
	c := mkNode("c", 1, 3)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 200),
		slot.New(b, 50, 300),
		slot.New(c, 100, 400),
	})
	w, stats, ok := ALP{}.FindWindow(list, mkJob("j", 2, 100, 1, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.Start() != 50 {
		t.Errorf("window start: got %v, want 50 (second slot's start)", w.Start())
	}
	if len(w.Placements) != 2 || !w.UsesNode("a") || !w.UsesNode("b") {
		t.Errorf("window nodes wrong: %v", w)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("window invalid: %v", err)
	}
	if stats.SlotsExamined != 2 {
		t.Errorf("scan should stop after 2 slots, examined %d", stats.SlotsExamined)
	}
}

func TestALPPriceCapFiltersSlots(t *testing.T) {
	cheap := mkNode("cheap", 1, 2)
	pricey := mkNode("pricey", 1, 9)
	cheap2 := mkNode("cheap2", 1, 3)
	list := slot.NewList([]slot.Slot{
		slot.New(cheap, 0, 200),
		slot.New(pricey, 0, 200),
		slot.New(cheap2, 100, 400),
	})
	w, _, ok := ALP{}.FindWindow(list, mkJob("j", 2, 100, 1, 5))
	if !ok {
		t.Fatal("window not found")
	}
	if w.UsesNode("pricey") {
		t.Error("ALP used a slot above the price cap")
	}
	if w.Start() != 100 {
		t.Errorf("window start: got %v, want 100 (had to wait for cheap2)", w.Start())
	}
	if w.MaxSlotPrice() > 5 {
		t.Errorf("ALP window violates the per-slot cap: %v", w.MaxSlotPrice())
	}
}

func TestALPPerformanceFilter(t *testing.T) {
	slow := mkNode("slow", 1, 1)
	fast := mkNode("fast", 2.5, 1)
	fast2 := mkNode("fast2", 2, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(slow, 0, 500),
		slot.New(fast, 10, 500),
		slot.New(fast2, 20, 500),
	})
	w, _, ok := ALP{}.FindWindow(list, mkJob("j", 2, 100, 2, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.UsesNode("slow") {
		t.Error("ALP placed a task on a node below the performance floor")
	}
	// Heterogeneous right edge: fast (P=2.5) runs ceil(100/2.5)=40,
	// fast2 (P=2) runs 50. Window start 20 (fast2's start).
	if w.Start() != 20 || w.Length() != 50 {
		t.Errorf("window geometry: start=%v len=%v, want 20/50", w.Start(), w.Length())
	}
}

func TestALPSlotTooShortIsSkipped(t *testing.T) {
	a := mkNode("a", 1, 1)
	b := mkNode("b", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 50), // too short for a 100-tick task
		slot.New(b, 0, 500),
		slot.New(a, 60, 500),
	})
	w, _, ok := ALP{}.FindWindow(list, mkJob("j", 2, 100, 1, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.Start() != 60 {
		t.Errorf("window start: got %v, want 60", w.Start())
	}
}

func TestALPEvictionOnAdvance(t *testing.T) {
	// Slot a's remaining length expires once the window start advances
	// past 100; the algorithm must replace it, not return an invalid
	// window.
	a := mkNode("a", 1, 1)
	b := mkNode("b", 1, 1)
	c := mkNode("c", 1, 1)
	list := slot.NewList([]slot.Slot{
		slot.New(a, 0, 150),   // can host [0,100] starts up to 50
		slot.New(b, 120, 400), // forces window start to 120 → a expires
		slot.New(c, 130, 400),
	})
	w, stats, ok := ALP{}.FindWindow(list, mkJob("j", 2, 100, 1, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.UsesNode("a") {
		t.Error("expired candidate retained in window")
	}
	if w.Start() != 130 {
		t.Errorf("window start: got %v, want 130", w.Start())
	}
	if stats.CandidatesEvicted == 0 {
		t.Error("eviction should have been counted")
	}
}

func TestALPFailureWhenInsufficientSlots(t *testing.T) {
	a := mkNode("a", 1, 1)
	list := slot.NewList([]slot.Slot{slot.New(a, 0, 500)})
	_, _, ok := ALP{}.FindWindow(list, mkJob("j", 2, 100, 1, 10))
	if ok {
		t.Error("window found with fewer slots than N")
	}
	// All slots below the cap → failure too.
	pricey := mkNode("p", 1, 50)
	list = slot.NewList([]slot.Slot{slot.New(pricey, 0, 500), slot.New(pricey, 0, 400)})
	_, stats, ok2 := ALP{}.FindWindow(list, mkJob("j", 1, 100, 1, 10))
	if ok2 {
		t.Error("window found despite price cap excluding everything")
	}
	if stats.SlotsRejected != 2 {
		t.Errorf("SlotsRejected: got %d, want 2", stats.SlotsRejected)
	}
}

func TestALPSingleSlotJob(t *testing.T) {
	a := mkNode("a", 1, 1)
	list := slot.NewList([]slot.Slot{slot.New(a, 30, 500)})
	w, _, ok := ALP{}.FindWindow(list, mkJob("j", 1, 100, 1, 10))
	if !ok {
		t.Fatal("window not found")
	}
	if w.Start() != 30 || w.Length() != 100 {
		t.Errorf("window geometry wrong: %v", w)
	}
}

func TestALPInvalidInputs(t *testing.T) {
	a := mkNode("a", 1, 1)
	list := slot.NewList([]slot.Slot{slot.New(a, 0, 100)})
	if _, _, ok := (ALP{}).FindWindow(nil, mkJob("j", 1, 10, 1, 10)); ok {
		t.Error("nil list accepted")
	}
	if _, _, ok := (ALP{}).FindWindow(list, &job.Job{Name: "bad"}); ok {
		t.Error("invalid job accepted")
	}
}

func TestALPLinearScanBound(t *testing.T) {
	// SlotsExamined never exceeds the list length — the Section 3
	// complexity claim.
	nodes := make([]*resource.Node, 0, 500)
	slots := make([]slot.Slot, 0, 500)
	rng := sim.NewRNG(5)
	for i := 0; i < 500; i++ {
		n := mkNode("", 1+rng.Float64()*2, sim.Money(1+rng.Float64()*5))
		n.ID = resource.NodeID(i)
		nodes = append(nodes, n)
		start := sim.Time(i * 3)
		slots = append(slots, slot.New(n, start, start.Add(sim.Duration(rng.IntBetween(50, 300)))))
	}
	list := slot.NewList(slots)
	_, stats, _ := ALP{}.FindWindow(list, mkJob("j", 64, 100, 1.5, 3))
	if stats.SlotsExamined > list.Len() {
		t.Errorf("examined %d slots on a %d-slot list", stats.SlotsExamined, list.Len())
	}
	_ = nodes
}

func TestALPName(t *testing.T) {
	if (ALP{}).Name() != "ALP" {
		t.Error("Name should be ALP")
	}
}

func TestAttributeRequirementsFilterSlots(t *testing.T) {
	// Two nodes meet performance but only one has the RAM/OS/tag profile
	// the request demands; both algorithms must skip the other.
	gpu := mkNode("gpu-node", 1, 2)
	gpu.Attrs = resource.Attributes{RAMMB: 16384, DiskGB: 200, OS: "linux", Tags: []string{"gpu"}}
	plain := mkNode("plain", 1, 1)
	plain.Attrs = resource.Attributes{RAMMB: 2048, OS: "linux"}
	list := slot.NewList([]slot.Slot{
		slot.New(plain, 0, 400),
		slot.New(gpu, 0, 400),
	})
	j := mkJob("ml", 1, 100, 1, 5)
	j.Request.Needs = resource.Requirements{MinRAMMB: 8192, OS: "linux", Tags: []string{"gpu"}}
	for _, algo := range []linearAlgorithm{ALP{}, AMP{}} {
		w, stats, ok := algo.FindWindow(list, j)
		if !ok {
			t.Fatalf("%s: no window", algo.Name())
		}
		if !w.UsesNode("gpu-node") || w.UsesNode("plain") {
			t.Errorf("%s: wrong node selection: %v", algo.Name(), w)
		}
		if stats.SlotsRejected != 1 {
			t.Errorf("%s: SlotsRejected = %d, want 1", algo.Name(), stats.SlotsRejected)
		}
	}
	// An unsatisfiable requirement fails cleanly.
	j.Request.Needs.OS = "windows"
	if _, _, ok := (AMP{}).FindWindow(list, j); ok {
		t.Error("window found despite impossible OS requirement")
	}
}
