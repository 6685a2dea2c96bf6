package metasched

import (
	"sort"
	"strconv"
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
	buf := strconv.AppendInt(append(make([]byte, 0, 256), "sched iter="...), int64(s.iter), 10)
	buf = strconv.AppendInt(append(buf, " seededTo="...), int64(s.seededTo), 10)
	buf = append(buf, '\n')
	for _, q := range s.queue {
		buf = append(append(buf, "queued "...), q.job.Name...)
		buf = strconv.AppendInt(append(buf, " prio="...), int64(q.job.Priority), 10)
		buf = strconv.AppendInt(append(buf, " postponed="...), int64(q.postponed), 10)
		buf = strconv.AppendInt(append(buf, " submit="...), int64(q.submitTick), 10)
		buf = strconv.AppendInt(append(buf, " notBefore="...), int64(q.notBefore), 10)
		buf = append(q.job.Request.Append(append(buf, " req{"...)), "}\n"...)
	}
	for _, name := range sortedKeys(s.placed) {
		buf = append(append(buf, "placed "...), name...)
		buf = append(s.placed[name].Request.Append(append(buf, " req{"...)), "}\n"...)
	}
	for _, name := range sortedKeys(s.firstSubmit) {
		buf = append(append(buf, "submitted "...), name...)
		buf = append(strconv.AppendInt(append(buf, " at="...), int64(s.firstSubmit[name]), 10), '\n')
	}
	for _, name := range sortedKeys(s.retry) {
		st := s.retry[name]
		buf = append(append(buf, "retry "...), name...)
		buf = strconv.AppendInt(append(buf, " attempts="...), int64(st.attempts), 10)
		buf = append(strconv.AppendInt(append(buf, " relaxations="...), int64(st.relaxations), 10), '\n')
	}
	for _, name := range sortedKeys(s.droppedJobs) {
		buf = append(append(append(append(buf, "dropped "...), name...), " reason="...), s.droppedJobs[name]...)
		buf = append(buf, '\n')
	}
	st := s.retryStats
	buf = strconv.AppendInt(append(buf, "retrystats cancelled="...), int64(st.Cancelled), 10)
	buf = strconv.AppendInt(append(buf, " requeued="...), int64(st.Requeued), 10)
	buf = strconv.AppendInt(append(buf, " relaxed="...), int64(st.Relaxations), 10)
	buf = strconv.AppendInt(append(buf, " exhausted="...), int64(st.DroppedExhausted), 10)
	buf = append(strconv.AppendInt(append(buf, " deadline="...), int64(st.DroppedDeadline), 10), '\n')
	if la := s.cfg.LocalArrivals; la != nil {
		buf = append(strconv.AppendUint(append(buf, "arrivals rng="...), la.RNG.State(), 10), '\n')
	}
	b.Write(buf)
}

// CanonicalState appends the open round's state to b: the frozen batch,
// whether Evaluate has run, and the chosen combination awaiting Apply. An
// open round is real scheduler state — two sessions that agree on
// everything else but hold different pending plans diverge at the next
// Apply — so the model checker folds it into the state hash.
func (r *Round) CanonicalState(b *strings.Builder) {
	buf := strconv.AppendInt(append(make([]byte, 0, 128), "iteration open="...), int64(r.rep.Iteration), 10)
	buf = strconv.AppendBool(append(buf, " planned="...), r.planned)
	buf = strconv.AppendBool(append(buf, " applied="...), r.applied)
	buf = strconv.AppendInt(append(buf, " alts="...), int64(r.rep.Alternatives), 10)
	buf = strconv.AppendInt(append(buf, " planT="...), int64(r.rep.PlanTime), 10)
	buf = strconv.AppendFloat(append(buf, " planC="...), float64(r.rep.PlanCost), 'f', 2, 64)
	buf = append(strconv.AppendInt(append(buf, " stale="...), int64(len(r.staleNames)), 10), '\n')
	for _, q := range r.selected {
		buf = append(append(append(buf, "batched "...), q.job.Name...), '\n')
	}
	b.Write(buf)
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
