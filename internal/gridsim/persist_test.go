package gridsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// bookedState returns a grid state with n back-to-back owner-local tasks
// spread round-robin over the pool's nodes, one failed node, and one income
// entry per domain.
func bookedState(pool *resource.Pool, n int) *GridState {
	st := &GridState{
		Now:    10,
		Failed: []NodeFailureState{{Node: pool.Node(0).Label(), At: 5}},
		Income: []DomainIncomeState{{Domain: "", Amount: 12.5}},
		Tasks:  make([]TaskState, 0, n),
	}
	for i := 0; i < n; i++ {
		k := sim.Time(i / pool.Size())
		st.Tasks = append(st.Tasks, TaskState{
			Name:  fmt.Sprintf("p%d-%d", i%pool.Size(), k),
			Node:  pool.Node(resource.NodeID(i % pool.Size())).Label(),
			Span:  sim.Interval{Start: 20 + 10*k, End: 25 + 10*k},
			Local: true,
		})
	}
	return st
}

func bigPool(nodes int) *resource.Pool {
	list := make([]*resource.Node, nodes)
	for i := range list {
		list[i] = &resource.Node{Name: fmt.Sprintf("n%d", i), Performance: 1, Price: 1}
	}
	return resource.MustNewPool(list)
}

// TestExportRestoreRoundTrip: restoring a state and exporting it again gives
// the same state back (tasks come out in node order, start order within a
// node, which is how bookedState lays them out per node).
func TestExportRestoreRoundTrip(t *testing.T) {
	pool := bigPool(1)
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	want := bookedState(pool, 50)
	if err := g.RestoreState(want); err != nil {
		t.Fatal(err)
	}
	if got := g.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", got, want)
	}
	empty, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if st := empty.ExportState(); st.Tasks != nil || st.Failed != nil {
		t.Fatalf("an empty grid exports non-nil lists: %+v", st)
	}
}

// TestRestoreResolvesLabels: restore resolves a label to its node, as
// Pool.ByName does, including the derived label of an unnamed node, and its
// errors name the unknown node or the overlapping pair.
func TestRestoreResolvesLabels(t *testing.T) {
	// The unnamed node 0 is labelled "node0"; the named node 1 is "node1".
	pool := resource.MustNewPool([]*resource.Node{
		{Performance: 1, Price: 1},
		{Name: "node1", Performance: 1, Price: 1},
	})
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	st := &GridState{Tasks: []TaskState{
		{Name: "a", Node: "node1", Span: sim.Interval{Start: 0, End: 5}},
		{Name: "b", Node: "node0", Span: sim.Interval{Start: 0, End: 5}},
		{Name: "c", Node: "node0", Span: sim.Interval{Start: 5, End: 9}},
	}}
	if err := g.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks(0)) != 2 || len(g.Tasks(1)) != 1 {
		t.Fatalf("tasks landed %d/%d on nodes 0/1, want 2/1", len(g.Tasks(0)), len(g.Tasks(1)))
	}
	for _, c := range []struct {
		st   *GridState
		want string
	}{
		{&GridState{Tasks: []TaskState{{Name: "a", Node: "ghost", Span: sim.Interval{Start: 0, End: 5}}}},
			`task a references unknown node "ghost"`},
		{&GridState{Failed: []NodeFailureState{{Node: "ghost"}}},
			`failure mark references unknown node "ghost"`},
		{&GridState{Tasks: []TaskState{
			{Name: "a", Node: "node1", Span: sim.Interval{Start: 0, End: 5}},
			{Name: "b", Node: "node1", Span: sim.Interval{Start: 4, End: 8}},
		}}, "a [0, 5) overlaps b [4, 8) on node1"},
	} {
		if err := g.RestoreState(c.st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %v, want it to contain %q", err, c.want)
		}
	}
}

// TestExportStateAllocsIndependentOfBookings: ExportState allocates the task
// list once, so its allocation count does not grow with the bookings.
func TestExportStateAllocsIndependentOfBookings(t *testing.T) {
	pool := bigPool(1000)
	allocs := func(n int) float64 {
		g, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RestoreState(bookedState(pool, n)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { g.ExportState() })
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Fatalf("ExportState allocates %v times at 1k tasks but %v at 100k", small, large)
	}
}
