package slot

import (
	"fmt"
	"testing"

	"ecosched/internal/sim"
)

// fuzzDraw turns the argument byte of the fuzz op at stream position i into a
// deterministic sequence of draws, each in [0, n).
func fuzzDraw(arg byte, i int) func(n int) int {
	seq := uint32(arg)*2654435761 + uint32(i)
	return func(n int) int {
		seq = seq*1664525 + 1013904223
		return int(seq>>8) % n
	}
}

// subtractedInterval draws the usage interval a subtraction cuts out of s:
// any interval inside the slot's span, empty ones included, with one draw in
// four pinned to the slot's start (K1 empty: K2 is K moved later) and one in
// four to its end (K2 empty). The rest are interior, so K1 and K2 both
// remain and K2 may land one or more buckets past K.
func subtractedInterval(s Slot, draw func(n int) int) sim.Interval {
	lo := s.Start().Add(sim.Duration(draw(int(s.Length()) + 1)))
	hi := lo.Add(sim.Duration(draw(int(s.End().Sub(lo)) + 1)))
	switch draw(4) {
	case 0:
		lo = s.Start()
	case 1:
		hi = s.End()
	}
	return sim.Interval{Start: lo, End: hi}
}

// FuzzSlotIndex drives raw fuzz bytes as an operation stream — insert,
// remove, subtract, trim, node drop, exact removal, clone, release, horizon
// extension, query — against an Index and the naive slice model, asserting after every
// mutation that the index matches the model element for element, the bucket
// invariants hold (canonical order across bucket boundaries, aggregate
// freshness, permutation membership — so no stale entries survive a
// subtraction), and Scan agrees with a filtered walk of the model. The
// trim/drop/exact/clone/extend ops are the live vacant-store maintenance
// surface (gridsim/store.go); fuzzing them against the model is what licenses
// the store to mutate the index in place between iterations. An extension
// (ops 24–25, 25 always a misuse the index must refuse unchanged) runs with a
// clone taken just before it, which must not see it.
//
// Clones come in two kinds: a throwaway that is mutated once, and retained
// ones. A retained clone is kept with the model frozen at its birth and must
// equal it after every later operation; the stream can also swap the working
// index with a retained one, so clones are mutated after their origin,
// origins after their clones, and clones are cloned again. The stream can
// also hand a retained clone back to the working index (Release, op 26): the
// working index goes on mutating buckets it may have taken back, and every
// other retained clone must still equal its model.
//
// Splits, dropped buckets, trims and extensions retire buckets to the
// index's free list, and newBucket reuses them. The named seed
// recycle-retired-buckets (testdata) trims the front while a retained clone
// holds it, releases the clone, then splits, drops and extends while another
// clone is retained: an index that recycled a bucket a clone still holds
// would write that clone's slots.
func FuzzSlotIndex(f *testing.F) {
	f.Add(uint8(2), []byte{0, 10, 0, 200, 1, 30, 7, 0, 8, 2, 5, 1})
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 3, 0, 4, 6, 0, 7, 1, 9, 9})
	f.Add(uint8(63), []byte{0, 255, 0, 254, 0, 3, 5, 0, 8, 128})
	f.Add(uint8(7), []byte{0, 9, 0, 77, 0, 130, 13, 40, 0, 5, 15, 2, 17, 1, 19, 0})
	f.Add(uint8(1), []byte{0, 9, 0, 77, 0, 130, 0, 41, 20, 0, 11, 1, 22, 0, 13, 30, 20, 0, 15, 3, 22, 1, 0, 12, 22, 0, 8, 0})
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 3, 21, 0, 22, 0, 21, 0, 16, 1, 22, 1, 14, 9, 23, 0, 0, 7})
	f.Add(uint8(1), []byte{0, 9, 0, 77, 0, 130, 24, 3, 21, 0, 24, 8, 25, 1, 25, 2, 14, 40, 24, 5, 22, 0, 24, 9})
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 3, 0, 4, 21, 0, 0, 5, 21, 0, 0, 6, 26, 1, 0, 7, 12, 3, 16, 1, 26, 0, 0, 8, 14, 9})
	f.Add(uint8(1), []byte{0, 9, 0, 77, 0, 130, 21, 0, 0, 41, 26, 0, 12, 2, 16, 3, 21, 0, 22, 0, 26, 0, 0, 12, 24, 3})
	// Each of the cut's paths ends one of these streams (subtractedInterval
	// draws the interval): K1 overwritten in place with K2 in the same bucket
	// and in a later one, K1 alone, K1 empty with K2 rotated inside the bucket
	// and moved to a later one, the whole slot used, and K1 ordering before
	// its predecessor (same start and node ID, later end, after a trim).
	f.Add(uint8(0), []byte{0, 0xc6, 0, 0xaf, 0, 0xa2, 12, 0x58})
	f.Add(uint8(1), []byte{0, 0xc7, 0, 0xbb, 0, 0x81, 0, 0x86, 12, 0xac})
	f.Add(uint8(2), []byte{0, 0x95, 0, 0x25, 11, 0x0f})
	f.Add(uint8(2), []byte{0, 0x58, 0, 0x82, 0, 0xf3, 0, 0x24, 0, 0x07, 0, 0x58, 0, 0xa3, 0, 0x8d, 11, 0x41})
	f.Add(uint8(1), []byte{0, 0x97, 0, 0xa8, 0, 0x11, 0, 0xc8, 0, 0xfa, 0, 0x67, 0, 0xab, 12, 0x1e})
	f.Add(uint8(1), []byte{0, 0x6a, 0, 0x29, 0, 0xe5, 0, 0x36, 0, 0x62, 0, 0xd4, 11, 0x78})
	f.Add(uint8(1), []byte{0, 0x80, 0, 0xcd, 0, 0xf8, 0, 0x06, 0, 0x6b, 0, 0x31, 0, 0xf6, 0, 0x23, 13, 0x84, 11, 0xb6, 12, 0xea, 12, 0x9b})

	f.Fuzz(func(t *testing.T, targetRaw uint8, ops []byte) {
		target := 1 + int(targetRaw)%64
		nodes := propNodes(6)
		ix := NewIndexSize(NewList(nil), target, nil)
		model := listModel{}
		// retained holds the clones kept alive (and the indexes swapped out
		// for them), each with the model it must keep equalling.
		var retained []*cowMember

		// slotFromByte derives a deterministic, possibly-empty slot; roughly
		// one in sixteen is empty, exercising Insert's ignore rule.
		slotFromByte := func(b byte) Slot {
			n := nodes[int(b)%len(nodes)]
			start := sim.Time(int64(b) * 7 % 500)
			length := sim.Duration(int64(b) % 16 * 11)
			return New(n, start, start.Add(length))
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch {
			case op < 8: // insert
				s := slotFromByte(arg)
				ix.Insert(s)
				model = model.insert(s)
			case op < 11 && ix.Len() > 0: // remove
				r := int(arg) % ix.Len()
				ix.RemoveAt(r)
				model = model.removeAt(r)
			case op < 13 && ix.Len() > 0: // subtract
				draw := fuzzDraw(arg, i)
				s := ix.At(draw(ix.Len()))
				used := subtractedInterval(s, draw)
				if err := ix.SubtractInterval(s, used); err != nil {
					t.Fatalf("op %d: subtract %v from %v: %v", i, used, s, err)
				}
				model = model.subtract(s, used)
			case op < 15: // trim everything before a cut point
				cut := sim.Time(int64(arg) * 5 % 400)
				var wantDropped, wantTrimmed int
				model, wantDropped, wantTrimmed = model.trimBefore(cut)
				if dropped, trimmed := ix.TrimBefore(cut); dropped != wantDropped || trimmed != wantTrimmed {
					t.Fatalf("op %d: TrimBefore(%v) = (%d, %d), model says (%d, %d)",
						i, cut, dropped, trimmed, wantDropped, wantTrimmed)
				}
			case op < 17: // drop one node's slots wholesale
				n := nodes[int(arg)%len(nodes)]
				var want int
				model, want = model.dropNode(n)
				if got := ix.DropNode(n); got != want {
					t.Fatalf("op %d: DropNode(%s) = %d, model says %d", i, n.Name, got, want)
				}
			case op < 19 && ix.Len() > 0: // remove one slot by exact identity
				r := int(arg) % ix.Len()
				s := ix.At(r)
				if !ix.RemoveExact(s) {
					t.Fatalf("op %d: RemoveExact(%v) missed a slot taken from the index itself", i, s)
				}
				// Duplicates are value-identical, so removing the first match
				// and removing rank r leave the same multiset in the same
				// order.
				model = model.removeAt(r)
			case op < 20: // throwaway clone: copy-on-write isolation under divergence
				c := ix.Clone(nil)
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("op %d: clone: %v", i, err)
				}
				if !model.matches(c) {
					t.Fatalf("op %d: clone diverged from model before any mutation", i)
				}
				if c.Len() > 0 {
					c.RemoveAt(int(arg) % c.Len())
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("op %d: mutated clone: %v", i, err)
					}
				}
			case op < 22: // retained clone
				if len(retained) < 4 {
					retained = append(retained, &cowMember{ix: ix.Clone(nil), model: model.clone(), born: i})
				}
			case op < 24 && len(retained) > 0: // carry on with a retained clone
				mb := retained[int(arg)%len(retained)]
				ix, mb.ix = mb.ix, ix
				model, mb.model = mb.model, model
			case op == 26 && len(retained) > 0: // hand a retained clone back
				k := int(arg) % len(retained)
				ix.Release(retained[k].ix)
				retained = append(retained[:k], retained[k+1:]...)
			case op == 24 || op == 25: // horizon extension; 25 always misuses it
				misuse := op == 25
				grows, run := extendArgs(model, nodes, fuzzDraw(arg, i), misuse)
				model = checkExtend(t, fmt.Sprintf("op %d", i), ix, model, grows, run, misuse)
			default: // query
				f := Filter{MinPerf: float64(int(arg) % 5)}
				if arg%2 == 1 {
					f.PriceCap = true
					f.MaxPrice = sim.Money(1 + int(arg)%4)
				}
				limit := ix.Len()
				if arg%3 == 0 {
					limit = int(arg) % (ix.Len() + 1)
				}
				got := collectScan(ix, f, limit)
				want := modelScan(model, f, limit)
				if !ranksEqual(got, want) {
					t.Fatalf("op %d: Scan(%+v, %d) = %v, model says %v", i, f, limit, got, want)
				}
				continue // queries don't mutate; skip the re-checks below
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if !model.matches(ix) {
				t.Fatalf("op %d: index diverged from model\nindex: %v\nmodel: %v",
					i, ix.List().Slots(), []Slot(model))
			}
			for _, mb := range retained {
				if err := mb.ix.CheckInvariants(); err != nil {
					t.Fatalf("op %d: index retained at op %d: %v", i, mb.born, err)
				}
				if !mb.model.matches(mb.ix) {
					t.Fatalf("op %d: index retained at op %d changed under a later mutation\nindex: %v\nmodel: %v",
						i, mb.born, mb.ix.List().Slots(), []Slot(mb.model))
				}
			}
		}

		// Final sweep: the full filter grid against the end state.
		for _, f := range indexFilters() {
			for _, limit := range []int{0, ix.Len() / 2, ix.Len()} {
				got := collectScan(ix, f, limit)
				want := modelScan(model, f, limit)
				if !ranksEqual(got, want) {
					t.Fatalf("final: Scan(%+v, %d) = %v, model says %v", f, limit, got, want)
				}
			}
		}
	})
}

// TestIndexMutationSurfaceModel is the deterministic twin of FuzzSlotIndex:
// the fuzz target only replays its seed corpus under plain `go test`, so this
// property test drives the full Index mutation surface — including the live
// vacant-store maintenance ops TrimBefore, DropNode, RemoveExact, Clone and
// Extend — through long seeded random interleavings against the naive slice
// model on every run.
func TestIndexMutationSurfaceModel(t *testing.T) {
	nodes := propNodes(6)
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		target := 1 + rng.IntN(48)
		ix := NewIndexSize(NewList(nil), target, nil)
		model := listModel{}
		for step := 0; step < 200; step++ {
			switch op := rng.IntN(22); {
			case op < 8:
				s := randomSlot(rng, nodes)
				ix.Insert(s)
				model = model.insert(s)
			case op < 10 && ix.Len() > 0:
				r := rng.IntN(ix.Len())
				ix.RemoveAt(r)
				model = model.removeAt(r)
			case op < 12 && ix.Len() > 0:
				s := ix.At(rng.IntN(ix.Len()))
				used := subtractedInterval(s, rng.IntN)
				if err := ix.SubtractInterval(s, used); err != nil {
					t.Fatalf("seed %d step %d: subtract %v from %v: %v", seed, step, used, s, err)
				}
				model = model.subtract(s, used)
			case op < 14:
				cut := sim.Time(rng.IntN(600))
				var wantDropped, wantTrimmed int
				model, wantDropped, wantTrimmed = model.trimBefore(cut)
				if dropped, trimmed := ix.TrimBefore(cut); dropped != wantDropped || trimmed != wantTrimmed {
					t.Fatalf("seed %d step %d: TrimBefore(%v) = (%d, %d), model says (%d, %d)",
						seed, step, cut, dropped, trimmed, wantDropped, wantTrimmed)
				}
			case op < 16:
				n := nodes[rng.IntN(len(nodes))]
				var want int
				model, want = model.dropNode(n)
				if got := ix.DropNode(n); got != want {
					t.Fatalf("seed %d step %d: DropNode(%s) = %d, model says %d", seed, step, n.Name, got, want)
				}
			case op < 18 && ix.Len() > 0:
				r := rng.IntN(ix.Len())
				s := ix.At(r)
				if !ix.RemoveExact(s) {
					t.Fatalf("seed %d step %d: RemoveExact(%v) missed a slot taken from the index", seed, step, s)
				}
				model = model.removeAt(r)
			case op < 19:
				c := ix.Clone(nil)
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: clone: %v", seed, step, err)
				}
				if !model.matches(c) {
					t.Fatalf("seed %d step %d: clone diverged from model", seed, step)
				}
				if c.Len() > 0 {
					c.RemoveAt(rng.IntN(c.Len()))
					if !model.matches(ix) {
						t.Fatalf("seed %d step %d: mutating a clone changed the original", seed, step)
					}
				}
			case op >= 20:
				misuse := op == 21
				grows, run := extendArgs(model, nodes, rng.IntN, misuse)
				model = checkExtend(t, fmt.Sprintf("seed %d step %d", seed, step), ix, model, grows, run, misuse)
			default:
				f := Filter{MinPerf: float64(rng.IntN(5))}
				if rng.Bool(0.5) {
					f.PriceCap = true
					f.MaxPrice = sim.Money(1 + rng.IntN(4))
				}
				limit := ix.Len()
				if rng.Bool(0.3) {
					limit = rng.IntN(ix.Len() + 1)
				}
				if got, want := collectScan(ix, f, limit), modelScan(model, f, limit); !ranksEqual(got, want) {
					t.Fatalf("seed %d step %d: Scan(%+v, %d) = %v, model says %v", seed, step, f, limit, got, want)
				}
				continue
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !model.matches(ix) {
				t.Fatalf("seed %d step %d: indexed list diverged from model\nlist:  %v\nmodel: %v",
					seed, step, ix.List().Slots(), []Slot(model))
			}
		}
	}
}

// TestIndexRemoveExactMiss pins the false branch: a slot value that is not in
// the index (wrong span, wrong node, or an emptied index) must return false
// and leave the contents untouched.
func TestIndexRemoveExactMiss(t *testing.T) {
	nodes := propNodes(2)
	ix := NewIndexSize(NewList(nil), 4, nil)
	s := New(nodes[0], 10, 40)
	ix.Insert(s)

	shifted := New(nodes[0], 11, 40)
	if ix.RemoveExact(shifted) {
		t.Fatal("RemoveExact matched a slot with a different span")
	}
	other := New(nodes[1], 10, 40)
	if ix.RemoveExact(other) {
		t.Fatal("RemoveExact matched a slot on a different node")
	}
	if ix.Len() != 1 {
		t.Fatalf("misses mutated the index: Len = %d, want 1", ix.Len())
	}
	if !ix.RemoveExact(s) {
		t.Fatal("RemoveExact missed the genuine slot")
	}
	if ix.RemoveExact(s) {
		t.Fatal("RemoveExact matched in an emptied index")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
