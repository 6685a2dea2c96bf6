package metasched

import (
	"fmt"
	"sort"
	"strings"
)

// CanonicalState appends a deterministic, complete serialization of the
// scheduler's mutable state to b: the iteration counter, the queue in
// order (with each entry's postponement count, submission tick, retry
// backoff gate, and the job's current — possibly relaxed — request), the
// placed set, the submission/retry/drop ledgers, the cancellation
// bookkeeping, and, when local arrivals are on, their generator's state.
// Together with gridsim.Grid.CanonicalState this is the whole
// observable state of a session, so the model checker can hash it to
// deduplicate interleavings: equal serializations ⇒ indistinguishable
// futures.
func (s *Scheduler) CanonicalState(b *strings.Builder) {
	fmt.Fprintf(b, "sched iter=%d seededTo=%d\n", s.iter, int64(s.seededTo))
	for _, q := range s.queue {
		fmt.Fprintf(b, "queued %s prio=%d postponed=%d submit=%d notBefore=%d req{%v}\n",
			q.job.Name, q.job.Priority, q.postponed, int64(q.submitTick), int64(q.notBefore), q.job.Request)
	}
	for _, name := range sortedKeys(s.placed) {
		fmt.Fprintf(b, "placed %s req{%v}\n", name, s.placed[name].Request)
	}
	for _, name := range sortedKeys(s.firstSubmit) {
		fmt.Fprintf(b, "submitted %s at=%d\n", name, int64(s.firstSubmit[name]))
	}
	for _, name := range sortedKeys(s.retry) {
		st := s.retry[name]
		fmt.Fprintf(b, "retry %s attempts=%d relaxations=%d\n", name, st.attempts, st.relaxations)
	}
	for _, name := range sortedKeys(s.droppedJobs) {
		fmt.Fprintf(b, "dropped %s reason=%s\n", name, s.droppedJobs[name])
	}
	st := s.retryStats
	fmt.Fprintf(b, "retrystats cancelled=%d requeued=%d relaxed=%d exhausted=%d deadline=%d\n",
		st.Cancelled, st.Requeued, st.Relaxations, st.DroppedExhausted, st.DroppedDeadline)
	if la := s.cfg.LocalArrivals; la != nil {
		fmt.Fprintf(b, "arrivals rng=%d\n", la.RNG.State())
	}
}

// CanonicalState appends the open round's state to b: the frozen batch,
// whether Evaluate has run, and the chosen combination awaiting Apply. An
// open round is real scheduler state — two sessions that agree on
// everything else but hold different pending plans diverge at the next
// Apply — so the model checker folds it into the state hash.
func (r *Round) CanonicalState(b *strings.Builder) {
	fmt.Fprintf(b, "iteration open=%d planned=%t applied=%t alts=%d planT=%v planC=%v stale=%d\n",
		r.rep.Iteration, r.planned, r.applied, r.rep.Alternatives, r.rep.PlanTime, r.rep.PlanCost,
		len(r.staleNames))
	for _, q := range r.selected {
		fmt.Fprintf(b, "batched %s\n", q.job.Name)
	}
	r.plan.CanonicalState(b)
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
