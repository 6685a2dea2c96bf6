package slot

import (
	"fmt"
	"sort"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// listModel is the naive reference implementation of List: a plain sorted
// slice with value semantics. Every operation copies eagerly, so the model
// trivially has the isolation the copy-on-write List must reproduce.
type listModel []Slot

func (m listModel) clone() listModel {
	out := make(listModel, len(m))
	copy(out, m)
	return out
}

func (m listModel) insert(s Slot) listModel {
	if s.Empty() {
		return m
	}
	out := append(m.clone(), s)
	// Stable sort puts the new element after existing order-ties, exactly
	// where List.Insert's sort.Search lands it.
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func (m listModel) removeAt(i int) listModel {
	out := m.clone()
	return append(out[:i], out[i+1:]...)
}

// equalTo compares the model against a List slot by slot.
func (m listModel) equalTo(l *List) bool {
	if len(m) != l.Len() {
		return false
	}
	for i, s := range m {
		if l.At(i) != s {
			return false
		}
	}
	return true
}

// randomSlot draws a slot over the node pool; roughly one in ten is empty,
// exercising Insert's ignore-empty rule.
func randomSlot(rng *sim.RNG, nodes []*resource.Node) Slot {
	n := nodes[rng.IntN(len(nodes))]
	start := sim.Time(rng.IntBetween(0, 500))
	length := sim.Duration(rng.IntBetween(0, 90))
	if rng.IntN(10) == 0 {
		length = 0
	}
	return New(n, start, start.Add(length))
}

// TestListModelInterleavings drives long random interleavings of Insert,
// RemoveAt, and Snapshot against the naive slice model: after every step the
// live list must match the live model, and every outstanding snapshot must
// still match the model state frozen when it was taken. This is the
// copy-on-write contract stated as a refinement of value semantics rather
// than as hand-picked scenarios.
func TestListModelInterleavings(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		nodes := propNodes(6)
		list := NewList(nil)
		model := listModel{}

		type frozen struct {
			view  *List
			model listModel
			step  int
		}
		var snaps []frozen

		for step := 0; step < 150; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.IntN(10); {
			case op < 5: // insert
				s := randomSlot(rng, nodes)
				list.Insert(s)
				model = model.insert(s)
			case op < 7 && list.Len() > 0: // remove
				i := rng.IntN(list.Len())
				list.RemoveAt(i)
				model = model.removeAt(i)
			default: // snapshot
				snaps = append(snaps, frozen{view: list.Snapshot(), model: model.clone(), step: step})
			}
			if !model.equalTo(list) {
				t.Fatalf("%s: list diverged from model\nlist:  %v\nmodel: %v", label, list.Slots(), []Slot(model))
			}
			for _, sn := range snaps {
				if !sn.model.equalTo(sn.view) {
					t.Fatalf("%s: snapshot from step %d no longer matches its frozen model\nview:  %v\nmodel: %v",
						label, sn.step, sn.view.Slots(), []Slot(sn.model))
				}
			}
		}
	}
}

// TestListModelSnapshotMutation extends the interleavings to mutations of
// the snapshots themselves: a snapshot is a full List, so writing through it
// must fork its storage without disturbing the live list or sibling views.
func TestListModelSnapshotMutation(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		nodes := propNodes(5)
		list := NewList(nil)
		model := listModel{}
		for i := 0; i < 12; i++ {
			s := randomSlot(rng, nodes)
			list.Insert(s)
			model = model.insert(s)
		}

		view, viewModel := list.Snapshot(), model.clone()
		sibling, siblingModel := list.Snapshot(), model.clone()

		// Interleave writes to the original and the first snapshot.
		for step := 0; step < 60; step++ {
			s := randomSlot(rng, nodes)
			if rng.IntN(2) == 0 {
				list.Insert(s)
				model = model.insert(s)
			} else {
				view.Insert(s)
				viewModel = viewModel.insert(s)
			}
			if view.Len() > 0 && rng.IntN(3) == 0 {
				i := rng.IntN(view.Len())
				view.RemoveAt(i)
				viewModel = viewModel.removeAt(i)
			}
			if !model.equalTo(list) {
				t.Fatalf("seed %d step %d: original diverged from model", seed, step)
			}
			if !viewModel.equalTo(view) {
				t.Fatalf("seed %d step %d: mutated snapshot diverged from its model", seed, step)
			}
			if !siblingModel.equalTo(sibling) {
				t.Fatalf("seed %d step %d: untouched sibling snapshot changed", seed, step)
			}
		}
	}
}
