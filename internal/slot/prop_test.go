package slot

import (
	"fmt"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// propNodes builds a reusable pool of nodes for the property runs.
func propNodes(n int) []*resource.Node {
	nodes := make([]*resource.Node, n)
	for i := range nodes {
		nodes[i] = &resource.Node{
			Name:        fmt.Sprintf("p%d", i),
			Performance: 1 + float64(i%3),
			Price:       sim.Money(1 + i%4),
		}
	}
	return nodes
}

// seedList builds a valid vacant list: one contiguous slot per node, so the
// per-node non-overlap invariant holds by construction and is preserved by
// every legal operation afterwards.
func seedList(rng *sim.RNG, nodes []*resource.Node) *List {
	var slots []Slot
	for _, n := range nodes {
		start := sim.Time(rng.IntBetween(0, 200))
		length := rng.DurationBetween(100, 600)
		slots = append(slots, New(n, start, start.Add(length)))
	}
	return NewList(slots)
}

// checkInvariants asserts the structural invariants the search algorithms
// rely on: the bucket invariants, canonical order, no empty slots, no
// same-node overlap.
func checkInvariants(t *testing.T, step string, ix *Index) {
	t.Helper()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariant broken: %v", step, err)
	}
	l := ix.List()
	if err := l.Validate(); err != nil {
		t.Fatalf("%s: invariant broken: %v", step, err)
	}
	if l.OverlapOnSameNode() {
		t.Fatalf("%s: same-node overlap introduced", step)
	}
}

// snapshotState captures an index's observable state for later comparison.
func snapshotState(ix *Index) string { return ix.List().String() }

// totalTime is the summed length of the index's slots.
func totalTime(ix *Index) sim.Duration { return ix.List().TotalTime() }

// TestListOperationProperties drives long random sequences of the mutations
// the scheduler performs on its slot store — subtract a window-sized
// interval from a random slot, insert a freed reservation back, coalesce —
// interleaved with snapshots, and checks after every step that the store
// stays sorted and non-overlapping per node, that total vacant time only
// changes by the subtracted/inserted amount, and that every live snapshot
// still renders exactly the state it was taken in.
func TestListOperationProperties(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		nodes := propNodes(8)
		list := NewIndex(seedList(rng, nodes), nil)
		checkInvariants(t, "seed", list)

		type snap struct {
			view  *Index
			state string
			step  int
		}
		var snaps []snap

		for step := 0; step < 120; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.IntN(10); {
			case op < 4 && list.Len() > 0: // subtract an interval
				target := list.At(rng.IntN(list.Len()))
				if target.Length() < 2 {
					continue
				}
				maxOff := int(target.Length()) - 1
				off := sim.Duration(rng.IntBetween(0, maxOff))
				length := sim.Duration(rng.IntBetween(1, int(target.Length()-off)))
				used := sim.Interval{Start: target.Start().Add(off), End: target.Start().Add(off + length)}
				before := totalTime(list)
				if err := list.SubtractInterval(target, used); err != nil {
					t.Fatalf("%s: subtract: %v", label, err)
				}
				if got, want := totalTime(list), before-used.Length(); got != want {
					t.Fatalf("%s: total time %v after subtracting %v from %v, want %v",
						label, got, used.Length(), before, want)
				}
			case op < 6: // insert a freed span on a node, non-overlapping
				n := nodes[rng.IntN(len(nodes))]
				// Find a gap after the node's latest end to keep per-node
				// disjointness — mirrors a cancelled reservation re-opening
				// vacancy after existing slots.
				var latest sim.Time
				list.Each(func(_ int, s Slot) bool {
					if s.Node == n && s.End() > latest {
						latest = s.End()
					}
					return true
				})
				start := latest.Add(sim.Duration(rng.IntBetween(1, 50)))
				length := rng.DurationBetween(10, 120)
				before := totalTime(list)
				list.Insert(New(n, start, start.Add(length)))
				if got, want := totalTime(list), before+length; got != want {
					t.Fatalf("%s: total time %v after inserting %v into %v, want %v",
						label, got, length, before, want)
				}
			case op < 7: // coalesce preserves vacant time and invariants
				before := totalTime(list)
				list = NewIndex(list.List().Coalesce(), nil)
				if got := totalTime(list); got != before {
					t.Fatalf("%s: coalesce changed total time %v -> %v", label, before, got)
				}
			default: // take a copy to audit later
				snaps = append(snaps, snap{view: list.Clone(nil), state: snapshotState(list), step: step})
			}
			checkInvariants(t, label, list)
			// Every copy taken so far must be unaffected by any of the
			// mutations above.
			for _, sn := range snaps {
				if got := snapshotState(sn.view); got != sn.state {
					t.Fatalf("seed %d: snapshot from step %d changed after step %d\n--- was ---\n%s\n--- now ---\n%s",
						seed, sn.step, step, sn.state, got)
				}
				checkInvariants(t, fmt.Sprintf("seed %d snapshot@%d", seed, sn.step), sn.view)
			}
		}
	}
}

// TestIndexCloneWriteIsolation pins the copy-on-write contract in both
// directions: mutating the origin never shows in the clone, and mutating the
// clone never shows in the origin — with everything in one shared bucket and
// with one slot per bucket.
func TestIndexCloneWriteIsolation(t *testing.T) {
	for _, target := range []int{1, DefaultBucketSize} {
		rng := sim.NewRNG(7)
		nodes := propNodes(6)
		origin := NewIndexSize(seedList(rng, nodes), target, nil)
		origState := snapshotState(origin)

		view := origin.Clone(nil)
		if got := snapshotState(view); got != origState {
			t.Fatalf("fresh clone differs from origin:\n%s\nvs\n%s", got, origState)
		}

		// Mutate the origin: the clone must hold.
		first := origin.At(0)
		mid := first.Start().Add(first.Length() / 2)
		if err := origin.SubtractInterval(first, sim.Interval{Start: first.Start(), End: mid}); err != nil {
			t.Fatal(err)
		}
		if got := snapshotState(view); got != origState {
			t.Fatal("mutating the origin leaked into the clone")
		}

		// Mutate the clone: the origin must hold.
		afterMutation := snapshotState(origin)
		view.RemoveAt(0)
		if got := snapshotState(origin); got != afterMutation {
			t.Fatal("mutating the clone leaked into the origin")
		}

		// A second generation keeps isolating, and so does a clone of a clone.
		second := origin.Clone(nil)
		third := second.Clone(nil)
		secondState := snapshotState(second)
		origin.Insert(New(nodes[0], 10_000, 10_050))
		second.DropNode(nodes[1])
		if got := snapshotState(third); got != secondState {
			t.Fatal("clone of a clone observed a later mutation")
		}
		for _, ix := range []*Index{origin, view, second, third} {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
