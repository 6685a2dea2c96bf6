package slot

import "ecosched/internal/metrics"

// IndexMetrics holds the pre-resolved maintenance instruments of one Index:
// structure churn (rebuilds, inserts, removes, splits, dropped buckets) and
// the shape of the bucket tiling. Scan-time traversal work is reported
// separately through ScanStats so read-only shared indexes stay write-free.
//
// A holder built from a nil registry holds nil instruments, which discard
// every observation (the internal/metrics contract); an Index given a nil
// *IndexMetrics uses such a holder. All observations happen on the mutating
// goroutine — an Index has exactly one. Indexes sharing one holder may be
// mutated on different goroutines (the grid's shard stores are): the
// counters and the histogram are sums, whose values do not depend on the
// order, but the Buckets gauge keeps whichever write came last, so such an
// owner sets it again once the goroutines join.
type IndexMetrics struct {
	// Rebuilds counts full re-tilings (including the initial build).
	Rebuilds *metrics.Counter
	// Inserts and Removes count incremental slot mutations applied through
	// the index.
	Inserts *metrics.Counter
	Removes *metrics.Counter
	// Splits and Drops count buckets divided at the size threshold and
	// buckets deleted on emptying.
	Splits *metrics.Counter
	Drops  *metrics.Counter
	// Buckets is the current bucket count; BucketSize observes each
	// bucket's size whenever the tiling changes shape.
	Buckets    *metrics.Gauge
	BucketSize *metrics.Histogram
	// SlotsMoved counts slots a mutation wrote: in-bucket shifts, bucket
	// copies, splits and bulk re-tilings. The scan counters count slots read;
	// this is the cost side of the store. BucketCopies counts the
	// copy-on-write copies among them — the first write to a bucket shared
	// with a clone.
	SlotsMoved   *metrics.Counter
	BucketCopies *metrics.Counter
}

// disabledIndexMetrics is the holder of an index without instruments.
var disabledIndexMetrics IndexMetrics

// orDisabled maps a nil holder to disabledIndexMetrics.
func orDisabled(m *IndexMetrics) *IndexMetrics {
	if m == nil {
		return &disabledIndexMetrics
	}
	return m
}

// NewIndexMetrics resolves the index instruments under the given prefix
// (e.g. "alloc/AMP/index/"). A nil registry returns the disabled holder.
func NewIndexMetrics(r *metrics.Registry, prefix string) *IndexMetrics {
	if r == nil {
		return &disabledIndexMetrics
	}
	return &IndexMetrics{
		Rebuilds:   r.Counter(prefix + "rebuilds_total"),
		Inserts:    r.Counter(prefix + "inserts_total"),
		Removes:    r.Counter(prefix + "removes_total"),
		Splits:     r.Counter(prefix + "splits_total"),
		Drops:      r.Counter(prefix + "bucket_drops_total"),
		Buckets:    r.Gauge(prefix + "buckets"),
		BucketSize: r.Histogram(prefix+"bucket_size_slots", metrics.ExpBuckets(8, 2, 8)),

		SlotsMoved:   r.Counter(prefix + "slots_moved_total"),
		BucketCopies: r.Counter(prefix + "bucket_copies_total"),
	}
}

// rebuilt records a full re-tiling and its resulting shape.
func (m *IndexMetrics) rebuilt(buckets []*bucket) {
	m.Rebuilds.Inc()
	m.shape(buckets)
}

// shape records the tiling after a split, a drop, a first insert or a bulk
// rewrite changed it. A disabled holder skips the walk over the buckets.
func (m *IndexMetrics) shape(buckets []*bucket) {
	m.Buckets.Set(int64(len(buckets)))
	if m.BucketSize == nil {
		return
	}
	for i := range buckets {
		m.BucketSize.Observe(int64(len(buckets[i].slots)))
	}
}

// bucketCopied records the copy-on-write copy of one n-slot bucket.
func (m *IndexMetrics) bucketCopied(n int) {
	m.BucketCopies.Inc()
	m.SlotsMoved.Add(int64(n))
}
