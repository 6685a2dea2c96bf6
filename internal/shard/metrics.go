package shard

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/metrics"
	"ecosched/internal/slot"
)

// Metrics is the sharded search's observability family, under "shard/".
// Built from a nil registry it holds nil instruments and costs nothing. Like
// every instrument in this repo, the counters are deterministic work units,
// never wall-clock readings.
type Metrics struct {
	// Count is the configured shard count.
	Count *metrics.Gauge
	// Slots holds one gauge per shard: the slots its published view carried
	// at the last publication.
	Slots []*metrics.Gauge
	// ScanSlots holds one counter per shard: total ranks its candidate
	// cursor walked across all scans.
	ScanSlots []*metrics.Counter
	// MergeCandidates counts candidates consumed by the cross-shard merge.
	MergeCandidates *metrics.Counter
	// MergeRounds counts producer refill rounds.
	MergeRounds *metrics.Counter
	// CriticalPath accumulates the scan-phase critical path: per refill
	// round, the maximum ranks walked by any one shard. With K producers on
	// K cores this is the wall-clock-proportional production cost.
	CriticalPath *metrics.Counter
	// Imbalance gauges the last publication's skew: max shard slots over
	// mean shard slots, ×1000 (1000 = perfectly balanced).
	Imbalance *metrics.Gauge
}

// disabledMetrics is the holder of a search without instruments.
var disabledMetrics Metrics

// NewMetrics resolves the shard family for k shards in the registry. A nil
// registry returns the disabled holder.
func NewMetrics(r *metrics.Registry, k int) *Metrics {
	if r == nil {
		return &disabledMetrics
	}
	m := &Metrics{
		Count:           r.Gauge("shard/count"),
		Slots:           make([]*metrics.Gauge, k),
		ScanSlots:       make([]*metrics.Counter, k),
		MergeCandidates: r.Counter("shard/merge/candidates_total"),
		MergeRounds:     r.Counter("shard/merge/rounds_total"),
		CriticalPath:    r.Counter("shard/scan_critical_path_total"),
		Imbalance:       r.Gauge("shard/imbalance_x1000"),
	}
	m.Count.Set(int64(k))
	for i := 0; i < k; i++ {
		m.Slots[i] = r.Gauge(fmt.Sprintf("shard/%d/slots", i))
		m.ScanSlots[i] = r.Counter(fmt.Sprintf("shard/%d/scan_slots_total", i))
	}
	return m
}

// Published records a publication of per-shard vacant views: each shard's
// slot gauge and the imbalance of the split.
func (m *Metrics) Published(views []*slot.Index) {
	total, max := int64(0), int64(0)
	for i, v := range views {
		n := int64(v.Len())
		if i < len(m.Slots) {
			m.Slots[i].Set(n)
		}
		total += n
		if n > max {
			max = n
		}
	}
	if len(views) > 0 && total > 0 {
		mean := float64(total) / float64(len(views))
		m.Imbalance.Set(int64(float64(max) / mean * 1000))
	}
}

// ObserveSearch folds one search's ShardWork accounting into the counters;
// a nil work records nothing.
func (m *Metrics) ObserveSearch(work *alloc.ShardWork) {
	if work == nil {
		return
	}
	for i, n := range work.ScanSlots {
		if i < len(m.ScanSlots) {
			m.ScanSlots[i].Add(n)
		}
	}
	m.MergeCandidates.Add(work.Merged)
	m.MergeRounds.Add(work.Rounds)
	m.CriticalPath.Add(work.CriticalPath)
}
