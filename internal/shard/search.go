package shard

import (
	"ecosched/internal/alloc"
	"ecosched/internal/job"
	"ecosched/internal/slot"
)

// Search runs the federated alternative search over per-shard vacant views:
// alloc.FindAlternativesSharded with this partition's node assignment, plus
// metrics observation of the scan-phase work (a nil m records nothing).
// views[i] must hold exactly the vacant slots of the nodes Of assigns to
// shard i (gridsim.ShardViews publishes such views), and ownership transfers
// — the search subtracts found windows from the views in place. Results are
// byte-identical to the unsharded search over the merged list.
func Search(algo alloc.Algorithm, p Partition, views []*slot.Index, batch *job.Batch,
	opts alloc.SearchOptions, m *Metrics) (*alloc.SearchResult, error) {
	if m == nil {
		m = &disabledMetrics
	}
	// Only an enabled holder has per-shard counters to feed; the disabled
	// path allocates no accounting.
	var work *alloc.ShardWork
	if m.ScanSlots != nil {
		work = &alloc.ShardWork{ScanSlots: make([]int64, len(views))}
	}
	res, err := alloc.FindAlternativesSharded(algo, views, p.Of, batch, opts, 1, work)
	if err != nil {
		return nil, err
	}
	m.ObserveSearch(work)
	return res, nil
}
