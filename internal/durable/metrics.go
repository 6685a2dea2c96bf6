package durable

import "ecosched/internal/metrics"

// durableMetrics holds the journal/recovery instruments under the
// "metasched/durable/" prefix. Built from a nil registry it holds nil
// instruments, making every observation a no-op branch — the
// allocation-parity test pins that the disabled path allocates nothing.
type durableMetrics struct {
	// Journal write path.
	records     *metrics.Counter
	bytes       *metrics.Counter
	checkpoints *metrics.Counter
	// Recovery path.
	replays      *metrics.Counter
	replayed     *metrics.Counter
	tornBytes    *metrics.Counter
	checkpointed *metrics.Counter
}

// disabledDurableMetrics is the holder of a journal without instruments.
var disabledDurableMetrics durableMetrics

// newDurableMetrics resolves the instruments; a nil registry returns the
// disabled holder.
func newDurableMetrics(r *metrics.Registry) *durableMetrics {
	if r == nil {
		return &disabledDurableMetrics
	}
	return &durableMetrics{
		records:      r.Counter("metasched/durable/records_appended_total"),
		bytes:        r.Counter("metasched/durable/journal_bytes_total"),
		checkpoints:  r.Counter("metasched/durable/checkpoints_written_total"),
		replays:      r.Counter("metasched/durable/replays_total"),
		replayed:     r.Counter("metasched/durable/records_replayed_total"),
		tornBytes:    r.Counter("metasched/durable/torn_tail_bytes_dropped_total"),
		checkpointed: r.Counter("metasched/durable/recoveries_from_checkpoint_total"),
	}
}

func (m *durableMetrics) appended(frameBytes int64) {
	m.records.Inc()
	m.bytes.Add(frameBytes)
}

func (m *durableMetrics) replayStarted(fromCheckpoint bool) {
	m.replays.Inc()
	if fromCheckpoint {
		m.checkpointed.Inc()
	}
}
