package slot

import (
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// benchSizes names the store sizes of the benchmark's dense and wide grids.
var benchSizes = []struct {
	name string
	n    int
}{{"n=5k", 5_000}, {"n=100k", 100_000}}

// BenchmarkSubtractInterval is the paper's cut (Fig. 1b) on a published view:
// a clone of the store, renewed every 1024 cuts as a round's publication
// would, takes one-tick cuts at scattered ranks. The cost must not depend on
// the store size.
func BenchmarkSubtractInterval(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			list, _ := wideList(size.n)
			base := NewIndex(list, nil)
			ix := base.Clone(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					b.StopTimer()
					ix = base.Clone(nil)
					b.StartTimer()
				}
				cutMiddle(b, ix, i*7919%ix.Len())
			}
		})
	}
}

var benchIndex *Index

// BenchmarkIndexClone is one publication of a 100k-slot store.
func BenchmarkIndexClone(b *testing.B) {
	list, _ := wideList(100_000)
	base := NewIndex(list, nil)
	b.Run("n=100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchIndex = base.Clone(nil)
		}
	})
}

// BenchmarkTrimBefore is one clock advance of the wide grid (Step 150 of a
// 6000-tick horizon) on a store that was just published.
func BenchmarkTrimBefore(b *testing.B) {
	list, _ := wideList(100_000)
	base := NewIndex(list, nil)
	b.Run("n=100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix := base.Clone(nil)
			b.StartTimer()
			ix.TrimBefore(150)
		}
	})
}

// wideExtension returns one horizon extension of wideList's grid by a
// 150-tick step: every other node's last slot grows, and every node gains two
// fragments in the newly visible window.
func wideExtension(list *List, nodes []*resource.Node) ([]Grow, []Slot) {
	last := make(map[*resource.Node]Slot, len(nodes))
	for _, s := range list.Slots() {
		last[s.Node] = s
	}
	var grows []Grow
	var run []Slot
	for i, n := range nodes {
		if i%2 == 0 {
			grows = append(grows, Grow{Slot: last[n], End: last[n].End() + 40})
		}
		start := sim.Time(6100 + i%50)
		run = append(run, New(n, start, start+40), New(n, start+60, start+100))
	}
	return grows, run
}

// BenchmarkExtend is one horizon extension of the wide grid on a store that
// was just published: 500 grows and a 2 000-slot run.
func BenchmarkExtend(b *testing.B) {
	list, nodes := wideList(100_000)
	base := NewIndex(list, nil)
	grows, fragments := wideExtension(list, nodes)
	run := make([]Slot, len(fragments))
	b.Run("n=100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix := base.Clone(nil)
			copy(run, fragments) // Extend sorts its run in place
			b.StartTimer()
			if err := ix.Extend(grows, run); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDropNode is one node failure on a store that was just published:
// the node's ~100 slots are spread over the whole horizon.
func BenchmarkDropNode(b *testing.B) {
	list, nodes := wideList(100_000)
	base := NewIndex(list, nil)
	b.Run("n=100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix := base.Clone(nil)
			b.StartTimer()
			ix.DropNode(nodes[i%len(nodes)])
		}
	})
}

func BenchmarkWindowValidate(b *testing.B) {
	ns := buildNodes(6)
	var placements []Placement
	for _, n := range ns {
		src := New(n, 0, 500)
		placements = append(placements, Placement{Source: src, Used: sim.Interval{Start: 100, End: 200}})
	}
	w := &Window{JobName: "bench", Placements: placements}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
