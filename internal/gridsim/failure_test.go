package gridsim

import (
	"fmt"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

func failureGrid(t *testing.T) *Grid {
	t.Helper()
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 1},
		{Name: "b", Performance: 1, Price: 2},
	})
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFailNodeCancelsReservations(t *testing.T) {
	g := failureGrid(t)
	// One local task and two reservations on node a; one reservation ends
	// before the failure instant and must survive the cancellation list.
	if err := g.BookLocal("p1", "a", 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := g.Book(Task{Name: "early", Node: 0, Span: sim.Interval{Start: 60, End: 90}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Book(Task{Name: "late", Node: 0, Span: sim.Interval{Start: 200, End: 300}}); err != nil {
		t.Fatal(err)
	}
	cancelled, err := g.FailNode(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cancelled) != 1 || cancelled[0].Name != "late" {
		t.Fatalf("cancelled: %v", cancelled)
	}
	if !g.NodeFailed(0) || g.NodeFailed(1) {
		t.Error("failure marks wrong")
	}
	if got := g.FailedNodes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("FailedNodes: %v", got)
	}
	// The local task stays recorded.
	found := false
	for _, tk := range g.Tasks(0) {
		if tk.Name == "p1" {
			found = true
		}
		if tk.Name == "late" {
			t.Error("cancelled reservation still booked")
		}
	}
	if !found {
		t.Error("local task removed by failure")
	}
	// Failing again is a no-op.
	again, err := g.FailNode(0, 100)
	if err != nil || len(again) != 0 {
		t.Errorf("second failure: %v, %v", again, err)
	}
	// Unknown node fails.
	if _, err := g.FailNode(9, 0); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestFailedNodePublishesNoVacancy(t *testing.T) {
	g := failureGrid(t)
	if _, err := g.FailNode(0, 0); err != nil {
		t.Fatal(err)
	}
	list, err := g.VacantSlots(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Slots() {
		if s.Node.Label() == "a" {
			t.Errorf("failed node published vacancy: %v", s)
		}
	}
	if list.Len() != 1 {
		t.Errorf("expected only node b's vacancy, got %d slots", list.Len())
	}
	if err := g.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	list, err = g.VacantSlots(500)
	if err != nil {
		t.Fatal(err)
	}
	if list.Len() != 2 {
		t.Errorf("repaired node should publish again, got %d slots", list.Len())
	}
	if err := g.RecoverNode(9); err == nil {
		t.Error("repairing unknown node accepted")
	}
}

func TestCancelJobReleasesAllPlacements(t *testing.T) {
	g := failureGrid(t)
	pool := g.Pool()
	w := &slot.Window{JobName: "par", Placements: []slot.Placement{
		{Source: slot.New(pool.Node(0), 0, 200), Used: sim.Interval{Start: 10, End: 60}},
		{Source: slot.New(pool.Node(1), 0, 200), Used: sim.Interval{Start: 10, End: 60}},
	}}
	if err := g.Commit(w); err != nil {
		t.Fatal(err)
	}
	if err := g.BookLocal("p1", "a", 100, 150); err != nil {
		t.Fatal(err)
	}
	out := g.CancelJob("par")
	if len(out) != 2 {
		t.Fatalf("cancelled %d placements, want 2", len(out))
	}
	if len(g.AllTasks()) != 1 {
		t.Errorf("grid should keep only the local task, has %d", len(g.AllTasks()))
	}
	if got := g.CancelJob("par"); len(got) != 0 {
		t.Error("second cancel should find nothing")
	}
}

// TestCancelJobVisitsNodesInPoolOrder pins CancelJob's visiting order: the
// cancelled tasks come back in node order, every run, so the store writes,
// the per-domain refund order and the store's slots_moved metric they drive
// are deterministic (Go randomizes map iteration order).
func TestCancelJobVisitsNodesInPoolOrder(t *testing.T) {
	nodes := make([]*resource.Node, 16)
	for i := range nodes {
		nodes[i] = &resource.Node{Name: fmt.Sprintf("n%02d", i), Performance: 1, Price: 1}
	}
	pool := resource.MustNewPool(nodes)
	for run := 0; run < 8; run++ {
		g, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		w := &slot.Window{JobName: "par"}
		for _, n := range pool.Nodes() {
			w.Placements = append(w.Placements, slot.Placement{
				Source: slot.New(n, 0, 200), Used: sim.Interval{Start: 10, End: 60}})
		}
		if err := g.Commit(w); err != nil {
			t.Fatal(err)
		}
		out := g.CancelJob("par")
		if len(out) != len(nodes) {
			t.Fatalf("cancelled %d placements, want %d", len(out), len(nodes))
		}
		for i, task := range out {
			if task.Node != resource.NodeID(i) {
				t.Fatalf("run %d: cancelled task %d is on node %d, want pool order", run, i, task.Node)
			}
		}
	}
}

func TestIncomeRefundedOnFailureAndCancel(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 2, Domain: "west"},
		{Name: "b", Performance: 1, Price: 3, Domain: "east"},
	})
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	w := &slot.Window{JobName: "par", Placements: []slot.Placement{
		{Source: slot.New(pool.Node(0), 0, 200), Used: sim.Interval{Start: 0, End: 50}},
		{Source: slot.New(pool.Node(1), 0, 200), Used: sim.Interval{Start: 0, End: 50}},
	}}
	if err := g.Commit(w); err != nil {
		t.Fatal(err)
	}
	if _, total := g.OwnerIncome(); !total.ApproxEq(250) {
		t.Fatalf("income after commit: %v", total)
	}
	// Node a fails: its 100 credits are refunded...
	if _, err := g.FailNode(0, 0); err != nil {
		t.Fatal(err)
	}
	if by, total := g.OwnerIncome(); !total.ApproxEq(150) || !by["west"].ApproxEq(0) {
		t.Fatalf("income after failure: %v (by %v)", total, by)
	}
	// ...and releasing the partial window refunds node b's share too.
	g.CancelJob("par")
	if _, total := g.OwnerIncome(); !total.ApproxEq(0) {
		t.Fatalf("income after cancel: %v", total)
	}
	// Income survives the clock moving past completed reservations.
	w2 := &slot.Window{JobName: "done", Placements: []slot.Placement{
		{Source: slot.New(pool.Node(1), 0, 200), Used: sim.Interval{Start: 0, End: 40}},
	}}
	if err := g.Commit(w2); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(500); err != nil {
		t.Fatal(err)
	}
	if _, total := g.OwnerIncome(); !total.ApproxEq(120) {
		t.Fatalf("income after advance: %v", total)
	}
}

// TestIncomeNeverNegativeOnPartialCharge is the regression test for the
// refund-accounting bug: a VO reservation booked directly through Book (with
// a Cost but never charged through Commit) must not be "refunded" on
// cancellation — the owner never received the fee, so the ledger would go
// negative. Cancellation paths refund what was actually credited.
func TestIncomeNeverNegativeOnPartialCharge(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 2, Domain: "west"},
		{Name: "b", Performance: 1, Price: 3, Domain: "west"},
	})
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	// One properly committed (and charged) reservation on node b...
	w := &slot.Window{JobName: "paid", Placements: []slot.Placement{
		{Source: slot.New(pool.Node(1), 0, 200), Used: sim.Interval{Start: 0, End: 50}},
	}}
	if err := g.Commit(w); err != nil {
		t.Fatal(err)
	}
	// ...and one reservation booked directly on node a, Cost set but never
	// credited to the ledger.
	direct := Task{Name: "unpaid", Node: 0, Span: sim.Interval{Start: 0, End: 50}, Cost: 100}
	if err := g.Book(direct); err != nil {
		t.Fatal(err)
	}
	if by, total := g.OwnerIncome(); !total.ApproxEq(150) || !by["west"].ApproxEq(150) {
		t.Fatalf("income after setup: %v", total)
	}

	// Failing node a cancels the never-charged task: no refund, no negative.
	cancelled, err := g.FailNode(0, 0)
	if err != nil || len(cancelled) != 1 {
		t.Fatalf("FailNode: %v, %v", cancelled, err)
	}
	if by, total := g.OwnerIncome(); !total.ApproxEq(150) || by["west"] < 0 {
		t.Fatalf("income went to %v (by %v) after cancelling an uncharged task", total, by)
	}

	// Same through CancelJob: rebook directly, cancel by name.
	if err := g.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Book(direct); err != nil {
		t.Fatal(err)
	}
	g.CancelJob("unpaid")
	if by, total := g.OwnerIncome(); !total.ApproxEq(150) || by["west"] < 0 {
		t.Fatalf("income went to %v (by %v) after CancelJob on an uncharged task", total, by)
	}

	// The charged reservation still refunds in full, exactly once.
	g.CancelJob("paid")
	if _, total := g.OwnerIncome(); !total.ApproxEq(0) {
		t.Fatalf("income after refunding the charged task: %v", total)
	}
}

func TestRecoverNodeIdempotent(t *testing.T) {
	g := failureGrid(t)
	if err := g.RecoverNode(0); err != nil {
		t.Fatalf("recovering a healthy node: %v", err)
	}
	if _, err := g.FailNode(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	if g.NodeFailed(0) {
		t.Fatal("node still failed after recovery")
	}
	if err := g.RecoverNode(0); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if err := g.RecoverNode(9); err == nil {
		t.Fatal("recovering unknown node accepted")
	}
}

func TestRevokeIntervalCancelsOnlyOverlapping(t *testing.T) {
	g := failureGrid(t)
	pool := g.Pool()
	commit := func(name string, node int, start, end sim.Time) {
		t.Helper()
		w := &slot.Window{JobName: name, Placements: []slot.Placement{
			{Source: slot.New(pool.Node(resource.NodeID(node)), 0, 1000), Used: sim.Interval{Start: start, End: end}},
		}}
		if err := g.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	commit("before", 0, 0, 100)
	commit("inside", 0, 150, 250)
	commit("straddle", 0, 280, 400)
	commit("after", 0, 500, 600)
	commit("other-node", 1, 150, 250)

	cancelled, err := g.RevokeInterval(0, sim.Interval{Start: 140, End: 300})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tk := range cancelled {
		names = append(names, tk.Name)
	}
	if len(names) != 2 || names[0] != "inside" || names[1] != "straddle" {
		t.Fatalf("cancelled %v, want [inside straddle]", names)
	}
	// Non-overlapping reservations survive, on both nodes.
	for _, tk := range g.Tasks(0) {
		if tk.Name == "inside" || tk.Name == "straddle" {
			t.Fatalf("revoked reservation %s still booked", tk.Name)
		}
	}
	if len(g.Tasks(1)) != 1 {
		t.Fatal("revocation leaked to another node")
	}
	// The revoked span is reclaimed: no vacancy inside [140, 300).
	list, err := g.VacantSlots(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Slots() {
		if s.Node.ID == 0 && s.Span.Overlaps(sim.Interval{Start: 140, End: 300}) {
			t.Fatalf("revoked span republished as vacancy: %v", s)
		}
	}
	// Income for the two cancelled reservations is refunded, never below 0.
	if _, total := g.OwnerIncome(); total < 0 {
		t.Fatalf("negative income after revocation: %v", total)
	}

	// Degenerate spans: entirely in the past is a no-op, invalid errors.
	if err := g.Advance(700); err != nil {
		t.Fatal(err)
	}
	if got, err := g.RevokeInterval(0, sim.Interval{Start: 100, End: 200}); err != nil || len(got) != 0 {
		t.Fatalf("past revocation: %v, %v", got, err)
	}
	if _, err := g.RevokeInterval(0, sim.Interval{Start: 300, End: 300}); err == nil {
		t.Fatal("empty span accepted")
	}
	if _, err := g.RevokeInterval(9, sim.Interval{Start: 700, End: 800}); err == nil {
		t.Fatal("unknown node accepted")
	}
	// Revoking on a failed node is a no-op.
	if _, err := g.FailNode(0, 700); err != nil {
		t.Fatal(err)
	}
	if got, err := g.RevokeInterval(0, sim.Interval{Start: 700, End: 900}); err != nil || len(got) != 0 {
		t.Fatalf("revocation on failed node: %v, %v", got, err)
	}
}
