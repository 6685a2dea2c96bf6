package alloc

import (
	"fmt"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// benchFixture builds an m-slot Section 5 list and a probing job whose low
// price cap forces a deep scan.
func benchFixture(b *testing.B, m int) (*slot.List, *job.Job) {
	b.Helper()
	gen := workload.PaperSlotGenerator()
	gen.CountMin, gen.CountMax = m, m
	list, _, err := gen.Generate(sim.NewRNG(uint64(m)))
	if err != nil {
		b.Fatal(err)
	}
	return list, mkJob("bench", 4, 100, 1, 2.0)
}

func BenchmarkALPFindWindow(b *testing.B) {
	for _, m := range []int{150, 1500} {
		list, j := benchFixture(b, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ALP{}.FindWindow(list, j)
			}
		})
	}
}

func BenchmarkAMPFindWindow(b *testing.B) {
	for _, m := range []int{150, 1500} {
		list, j := benchFixture(b, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AMP{}.FindWindow(list, j)
			}
		})
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := sim.NewRNG(3)
	costs := make([]sim.Money, 4096)
	for i := range costs {
		costs[i] = sim.Money(rng.IntBetween(1, 1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := newTopK(6)
		for id, c := range costs {
			tk.Add(id, c)
			if id >= 64 {
				tk.Remove(id - 64)
			}
		}
	}
}

// indexedBenchFixture builds an m-slot list that is almost entirely slow
// (performance 1) nodes, with a thin band of fast (performance 3) slots in
// the last eighth of the time axis, plus a batch mixing one job the grid can
// serve late with probing jobs it cannot serve at all: the deep job keeps
// the passes going while every probing job's scan walks to the end of the
// list and fails. The linear oracle tests all m slots per failing scan and
// ~m per deep scan; the index answers the same scans from its bucket
// aggregates — the probes' above-grid floor prunes every bucket via
// maxPerf, and the deep job's floor of 2 prunes the slow prefix wholesale
// and takes the selective permutation path inside the fast band.
func indexedBenchFixture(m int) (*slot.List, *job.Batch) {
	const (
		fastEvery = 32
		spacing   = 3
		slowLen   = sim.Duration(90)  // < same-node reuse gap of 96 ticks
		fastLen   = sim.Duration(600) // ~6 distinct fast nodes co-alive
	)
	fast := make([]*resource.Node, 16)
	for i := range fast {
		fast[i] = &resource.Node{Name: fmt.Sprintf("fast%d", i), Performance: 3, Price: 2}
	}
	slow := make([]*resource.Node, fastEvery)
	for i := range slow {
		slow[i] = &resource.Node{Name: fmt.Sprintf("slow%d", i), Performance: 1, Price: 1}
	}
	fastFrom := m - m/8
	slots := make([]slot.Slot, 0, m)
	for i := 0; i < m; i++ {
		start := sim.Time(int64(i) * spacing)
		if i >= fastFrom && i%fastEvery == 0 {
			n := fast[(i/fastEvery)%len(fast)]
			slots = append(slots, slot.New(n, start, start.Add(fastLen)))
		} else {
			slots = append(slots, slot.New(slow[i%fastEvery], start, start.Add(slowLen)))
		}
	}
	// One deep job keeps the multi-pass loop alive (and the index under
	// incremental maintenance) without letting O(m) subtraction memmoves
	// dominate the measurement; the probe fleet supplies the failing full
	// scans being measured.
	jobs := []*job.Job{mkJob("deep", 3, 150, 2, 10)}
	for i := 0; i < 32; i++ {
		jobs = append(jobs, mkJob(fmt.Sprintf("probe%d", i), 1, 150, 4, 10))
	}
	return slot.NewList(slots), job.MustNewBatch(jobs)
}

// BenchmarkIndexedSearch measures the multi-pass search — bucketed slot
// index, built once per search and maintained incrementally through window
// subtractions — on the sparse-fast-node fixture.
func BenchmarkIndexedSearch(b *testing.B) {
	opts := SearchOptions{MaxAlternativesPerJob: 2}
	for _, m := range []int{10000, 100000} {
		list, batch := indexedBenchFixture(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := FindAlternatives(AMP{}, list, batch, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalAlternatives() == 0 {
					b.Fatal("fixture found no alternatives")
				}
			}
		})
	}
}

func BenchmarkMultiPassSearch(b *testing.B) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(9))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
