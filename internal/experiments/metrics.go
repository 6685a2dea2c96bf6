package experiments

import (
	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/metrics"
)

// studyMetrics holds the instruments of one study run: experiment-level
// inclusion counters plus the per-algorithm search instruments and the
// shared frontier accounting. Resolved once per RunStudy from
// StudyConfig.Metrics; every instrument is nil when observability is off.
//
// The search and frontier observations happen inside the iteration worker
// pool, but every instrument is an order-independent atomic sum over the
// fixed iteration set, so the final snapshot is identical for any worker
// count — the same invariance RunStudy already guarantees for its results.
// The inclusion counters (kept/dropped) are bumped only in the ordered
// single-threaded reduction.
type studyMetrics struct {
	iterations        *metrics.Counter
	kept              *metrics.Counter
	droppedNoCoverage *metrics.Counter
	droppedInfeasible *metrics.Counter
	alp               *alloc.SearchMetrics
	amp               *alloc.SearchMetrics
	frontier          *dp.FrontierMetrics
}

// newStudyMetrics resolves the study instruments under the "experiments/"
// prefix (search instruments keep their own "alloc/<ALGO>/" prefix so one
// registry can be compared across study and metascheduler runs). A nil
// registry resolves every instrument to nil without allocating.
func newStudyMetrics(r *metrics.Registry) studyMetrics {
	return studyMetrics{
		iterations:        r.Counter("experiments/iterations_total"),
		kept:              r.Counter("experiments/kept_total"),
		droppedNoCoverage: r.Counter("experiments/dropped_no_coverage_total"),
		droppedInfeasible: r.Counter("experiments/dropped_infeasible_total"),
		alp:               alloc.NewSearchMetrics(r, alloc.ALP{}.Name()),
		amp:               alloc.NewSearchMetrics(r, alloc.AMP{}.Name()),
		frontier:          dp.NewFrontierMetrics(r),
	}
}

// reduce records one iteration's inclusion outcome; called only from the
// ordered reduction.
func (m *studyMetrics) reduce(sum iterSummary) {
	m.iterations.Inc()
	switch {
	case sum.kept:
		m.kept.Inc()
	case sum.noCoverage:
		m.droppedNoCoverage.Inc()
	default:
		m.droppedInfeasible.Inc()
	}
}
