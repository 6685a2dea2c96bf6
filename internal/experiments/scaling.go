package experiments

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/backfill"
	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
	"ecosched/internal/workload"
)

// ScalingPoint records the work done by each algorithm to place one job on
// a list of m slots. SlotsExamined is the deterministic operation count
// backing the Section 3 complexity discussion: for ALP/AMP it is bounded by
// m per search, while backfill's probe count grows with the number of busy
// intervals it scans per candidate start.
type ScalingPoint struct {
	Slots            int
	ALPExamined      int
	AMPExamined      int
	AMPBudgetChecks  int
	BackfillProbes   int
	BackfillBusyIvls int
}

// ScalingStudy measures operation counts as the slot-list length m grows.
// The same relative workload (one job asking for nodes/duration drawn from
// the paper's ranges) is placed on increasingly long lists by the
// production scan, a one-job FindFirst search.
func ScalingStudy(seed uint64, sizes []int) ([]ScalingPoint, error) {
	out := make([]ScalingPoint, 0, len(sizes))
	for _, m := range sizes {
		if m <= 0 {
			return nil, fmt.Errorf("experiments: non-positive list size %d", m)
		}
		rng := sim.NewRNG(seed ^ uint64(m)*0x9e37)
		gen := workload.PaperSlotGenerator()
		gen.CountMin, gen.CountMax = m, m
		list, _, err := gen.Generate(rng.Split())
		if err != nil {
			return nil, err
		}
		j := &job.Job{Name: "probe", Priority: 1, Request: job.ResourceRequest{
			Nodes:          4,
			Time:           100,
			MinPerformance: 1,
			// A cap low enough that both algorithms scan deep into
			// the list instead of stopping at the first few slots.
			MaxPrice: 2.0,
		}}
		batch := job.MustNewBatch([]*job.Job{j})
		alp, err := alloc.FindFirst(alloc.ALP{}, list, batch)
		if err != nil {
			return nil, err
		}
		amp, err := alloc.FindFirst(alloc.AMP{}, list, batch)
		if err != nil {
			return nil, err
		}

		// Backfill baseline: the same m intervals become busy periods
		// on a homogeneous cluster; count availability probes for an
		// earliest-window query.
		cluster, probes, busy, err := backfillProbeCount(rng.Split(), m)
		if err != nil {
			return nil, err
		}
		_ = cluster
		out = append(out, ScalingPoint{
			Slots:            m,
			ALPExamined:      alp.Stats.SlotsExamined,
			AMPExamined:      amp.Stats.SlotsExamined,
			AMPBudgetChecks:  amp.Stats.BudgetChecks,
			BackfillProbes:   probes,
			BackfillBusyIvls: busy,
		})
	}
	return out, nil
}

// backfillProbeCount builds a homogeneous cluster whose busy structure has m
// intervals and counts the node-availability probes EarliestWindow performs:
// candidate starts (m + 1) × nodes scanned per candidate. The count is
// computed analytically from the cluster shape rather than instrumented,
// because the probing loop is the algorithm's documented structure.
func backfillProbeCount(rng *sim.RNG, m int) (*backfill.Cluster, int, int, error) {
	nodes := 16
	cluster, err := backfill.NewCluster(nodes)
	if err != nil {
		return nil, 0, 0, err
	}
	// Spread m busy intervals round-robin across nodes with random
	// placement, mirroring "every node has at least one local job
	// scheduled" from Section 3.
	for i := 0; i < m; i++ {
		node := i % nodes
		start := sim.Time(int64(i/nodes)*400) + sim.Time(rng.IntBetween(0, 99))
		d := rng.DurationBetween(50, 300)
		if err := cluster.Occupy(node, start, d); err != nil {
			// Rare collision on the random offset: shift past it.
			if err := cluster.Occupy(node, start.Add(400), d); err != nil {
				continue
			}
		}
	}
	busy := cluster.BusyIntervals()
	// EarliestWindow examines up to busy+1 candidate starts and probes
	// each of the `nodes` timelines per candidate with a binary search
	// over that node's ~busy/nodes intervals. The dominant term is
	// (busy+1) × nodes probes — quadratic in m once the window lands
	// late in a crowded schedule.
	probes := (busy + 1) * nodes
	return cluster, probes, busy, nil
}

// RenderScaling prints the scaling table and the fitted log-log growth
// exponents (≈0 for bounded work, ≈1 for linear, ≈2 for quadratic).
func RenderScaling(points []ScalingPoint) string {
	t := stats.NewTable("m slots", "ALP examined", "AMP examined", "AMP budget checks", "backfill probes")
	var ms, alp, amp, bf []float64
	for _, p := range points {
		t.AddRow(p.Slots, p.ALPExamined, p.AMPExamined, p.AMPBudgetChecks, p.BackfillProbes)
		ms = append(ms, float64(p.Slots))
		alp = append(alp, float64(p.ALPExamined))
		amp = append(amp, float64(p.AMPExamined))
		bf = append(bf, float64(p.BackfillProbes))
	}
	out := t.String()
	out += fmt.Sprintf("growth exponents (log-log slope vs m): ALP %.2f, AMP %.2f, backfill %.2f\n",
		stats.LogLogSlope(ms, alp), stats.LogLogSlope(ms, amp), stats.LogLogSlope(ms, bf))
	return out
}
