package slot

import (
	"fmt"
	"sort"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// shardNodes builds a pool with distinct node IDs, the precondition for the
// tie-free guarantee of CountLess and MergeLists over node-disjoint parts.
func shardNodes(n int) []*resource.Node {
	nodes := make([]*resource.Node, n)
	for i := range nodes {
		nodes[i] = &resource.Node{
			ID:          resource.NodeID(i + 1),
			Name:        fmt.Sprintf("s%d", i),
			Performance: 1 + float64(i%3),
			Price:       sim.Money(1 + i%4),
		}
	}
	return nodes
}

func randomShardList(rng *sim.RNG, nodes []*resource.Node, n int) *List {
	slots := make([]Slot, 0, n)
	for len(slots) < n {
		s := randomSlot(rng, nodes)
		if !s.Empty() {
			slots = append(slots, s)
		}
	}
	return NewList(slots)
}

// TestScanFromIsResumedScan asserts the contract ScanFrom is built for: for
// every resume rank, ScanFrom(f, from, limit) yields exactly the suffix of
// Scan(f, limit)'s yield sequence whose ranks are >= from, and chunking one
// scan into consecutive ScanFrom windows reproduces the whole sequence.
func TestScanFromIsResumedScan(t *testing.T) {
	for _, target := range []int{1, 3, 16, 64} {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := sim.NewRNG(seed)
			nodes := propNodes(6)
			list := randomShardList(rng, nodes, 80)
			ix := NewIndexSize(list, target, nil)
			for _, f := range indexFilters() {
				for _, limit := range []int{0, 13, ix.Len() / 2, ix.Len(), ix.Len() + 5} {
					full := collectScan(ix, f, limit)
					for _, from := range []int{0, 1, 7, limit / 2, limit - 1, limit, limit + 3} {
						var got []int
						ix.ScanFrom(f, from, limit, nil, func(rank int, s Slot) bool {
							got = append(got, rank)
							return true
						})
						var want []int
						for _, r := range full {
							if r >= from {
								want = append(want, r)
							}
						}
						if !ranksEqual(got, want) {
							t.Fatalf("target %d seed %d: ScanFrom(%+v, %d, %d) = %v, want suffix %v of %v",
								target, seed, f, from, limit, got, want, full)
						}
					}
					// Chunked resumption covers every rank exactly once.
					var chunked []int
					for from := 0; from < limit; from += 7 {
						to := from + 7
						if to > limit {
							to = limit
						}
						ix.ScanFrom(f, from, to, nil, func(rank int, s Slot) bool {
							chunked = append(chunked, rank)
							return true
						})
					}
					if !ranksEqual(chunked, full) {
						t.Fatalf("target %d seed %d: chunked ScanFrom(%+v, limit %d) = %v, want %v",
							target, seed, f, limit, chunked, full)
					}
				}
			}
		}
	}
}

// TestScanFromEarlyStop checks the visitor's false return still stops a
// resumed scan immediately in both selective and dense bucket paths.
func TestScanFromEarlyStop(t *testing.T) {
	rng := sim.NewRNG(5)
	nodes := propNodes(6)
	list := randomShardList(rng, nodes, 60)
	for _, target := range []int{2, 64} {
		ix := NewIndexSize(list, target, nil)
		for _, f := range []Filter{{}, {MinPerf: 3}} {
			full := collectScan(ix, f, ix.Len())
			if len(full) < 4 {
				continue
			}
			from := full[1]
			calls := 0
			ix.ScanFrom(f, from, ix.Len(), nil, func(rank int, s Slot) bool {
				calls++
				return calls < 2
			})
			if calls != 2 {
				t.Fatalf("target %d filter %+v: visitor called %d times after stop, want 2", target, f, calls)
			}
		}
	}
}

// TestCountLess checks Index.CountLess against the naive count at several
// bucket sizes, both for members of the index (where it is the rank) and for
// arbitrary probe slots.
func TestCountLess(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := sim.NewRNG(seed)
		nodes := shardNodes(5)
		l := randomShardList(rng, nodes, 50)
		probes := make([]Slot, 0, l.Len()+20)
		probes = append(probes, l.Slots()...)
		for i := 0; i < 20; i++ {
			probes = append(probes, randomSlot(rng, nodes))
		}
		for _, target := range []int{1, 3, 16, 64} {
			ix := NewIndexSize(l, target, nil)
			for _, p := range probes {
				naive := 0
				for _, s := range l.Slots() {
					if less(s, p) {
						naive++
					}
				}
				if got := ix.CountLess(p); got != naive {
					t.Fatalf("seed %d target %d: CountLess(%v) = %d, naive count %d", seed, target, p, got, naive)
				}
			}
			for r := 0; r < l.Len(); r++ {
				if got := ix.CountLess(l.At(r)); got != r {
					t.Fatalf("seed %d target %d: CountLess of member at rank %d = %d", seed, target, r, got)
				}
			}
		}
	}
}

// TestMergeListsPartitionRoundTrip partitions random lists by node into K
// parts and asserts MergeLists reconstructs the original byte for byte, that
// summed CountLess over the parts recovers global ranks, and that the merge
// owns fresh storage (mutating an input leaves the merge intact).
func TestMergeListsPartitionRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		for _, k := range []int{1, 2, 3, 5} {
			rng := sim.NewRNG(seed)
			nodes := shardNodes(7)
			global := randomShardList(rng, nodes, 60)
			byPart := make([][]Slot, k)
			for _, s := range global.Slots() {
				i := int(s.Node.ID) % k
				byPart[i] = append(byPart[i], s)
			}
			parts := make([]*List, k)
			for i := range parts {
				parts[i] = NewList(byPart[i])
			}
			merged := MergeLists(parts...)
			if merged.Len() != global.Len() {
				t.Fatalf("seed %d k=%d: merged %d slots, want %d", seed, k, merged.Len(), global.Len())
			}
			for r := 0; r < global.Len(); r++ {
				if merged.At(r) != global.At(r) {
					t.Fatalf("seed %d k=%d: merged[%d] = %v, want %v", seed, k, r, merged.At(r), global.At(r))
				}
				sum := 0
				for _, p := range parts {
					sum += NewIndexSize(p, 4, nil).CountLess(global.At(r))
				}
				if sum != r {
					t.Fatalf("seed %d k=%d: summed CountLess of rank-%d slot = %d", seed, k, r, sum)
				}
			}
			if err := merged.Validate(); err != nil {
				t.Fatalf("seed %d k=%d: merged list invalid: %v", seed, k, err)
			}
			if global.Len() > 0 {
				before := merged.At(0)
				parts[int(global.At(0).Node.ID)%k].slots[0] = Slot{}
				if merged.At(0) != before {
					t.Fatalf("seed %d k=%d: merge aliases its inputs", seed, k)
				}
			}
		}
	}
}

// TestMergeListsMatchesNewList checks the k-way merge against re-sorting the
// concatenation for parts that are not node-disjoint (duplicate keys allowed;
// order among equals is unspecified but membership must match), plus nil and
// empty parts.
func TestMergeListsMatchesNewList(t *testing.T) {
	rng := sim.NewRNG(3)
	nodes := shardNodes(4)
	a := randomShardList(rng, nodes, 25)
	b := randomShardList(rng, nodes, 17)
	merged := MergeLists(a, nil, NewList(nil), b)
	var all []Slot
	all = append(all, a.Slots()...)
	all = append(all, b.Slots()...)
	want := NewList(all)
	if merged.Len() != want.Len() {
		t.Fatalf("merged %d slots, want %d", merged.Len(), want.Len())
	}
	if !sort.SliceIsSorted(merged.Slots(), func(i, j int) bool {
		return less(merged.At(i), merged.At(j))
	}) {
		t.Fatal("merge output is not canonically ordered")
	}
	count := map[Slot]int{}
	for _, s := range merged.Slots() {
		count[s]++
	}
	for _, s := range want.Slots() {
		count[s]--
	}
	for s, c := range count {
		if c != 0 {
			t.Fatalf("membership mismatch at %v (delta %d)", s, c)
		}
	}
	if MergeLists().Len() != 0 {
		t.Fatal("empty merge should be empty")
	}
}
