package slot

import "ecosched/internal/metrics"

// IndexMetrics holds the pre-resolved maintenance instruments of one Index:
// structure churn (rebuilds, inserts, removes, splits, dropped buckets) and
// the shape of the bucket tiling. Scan-time traversal work is reported
// separately through ScanStats so read-only shared indexes stay write-free.
//
// A nil *IndexMetrics disables instrumentation at zero cost, following the
// internal/metrics contract. All observations happen on the mutating
// goroutine — an Index has exactly one — so identical seeded sessions
// produce identical values.
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

// NewIndexMetrics resolves the index instruments under the given prefix
// (e.g. "alloc/AMP/index/"). A nil registry returns nil, the disabled state
// every method accepts.
func NewIndexMetrics(r *metrics.Registry, prefix string) *IndexMetrics {
	if r == nil {
		return nil
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
	if m == nil {
		return
	}
	m.Rebuilds.Inc()
	m.shape(buckets)
}

// shape records the tiling after a split, a drop, a first insert or a bulk
// rewrite changed it.
func (m *IndexMetrics) shape(buckets []*bucket) {
	if m == nil {
		return
	}
	m.Buckets.Set(int64(len(buckets)))
	for i := range buckets {
		m.BucketSize.Observe(int64(len(buckets[i].slots)))
	}
}

func (m *IndexMetrics) insert() {
	if m == nil {
		return
	}
	m.Inserts.Inc()
}

// removed records the removal of n slots.
func (m *IndexMetrics) removed(n int) {
	if m == nil || n == 0 {
		return
	}
	m.Removes.Add(int64(n))
}

func (m *IndexMetrics) split() {
	if m == nil {
		return
	}
	m.Splits.Inc()
}

func (m *IndexMetrics) drop() {
	if m == nil {
		return
	}
	m.Drops.Inc()
}

// moved records n slots written by a mutation.
func (m *IndexMetrics) moved(n int) {
	if m == nil {
		return
	}
	m.SlotsMoved.Add(int64(n))
}

// bucketCopied records the copy-on-write copy of one n-slot bucket.
func (m *IndexMetrics) bucketCopied(n int) {
	if m == nil {
		return
	}
	m.BucketCopies.Inc()
	m.SlotsMoved.Add(int64(n))
}
