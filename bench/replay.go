package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"ecosched/internal/alloc"
	"ecosched/internal/codec"
	"ecosched/internal/dp"
	"ecosched/internal/durable"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/slot"
)

// replayer drives a round through the step API and re-runs its layers from
// outside: it holds its own publication of the round's vacancy (copy-on-write
// views stay a valid pre-round snapshot whatever Apply commits) and, after
// the round, replays search, window subtraction and the DP on those views,
// timing each. The replay must reproduce the round's alternative count and
// plan criteria, or the attribution is of some other computation.
type replayer struct {
	s   *session
	tr  *tracer
	lay samples
	// views feed the replayed search; clones take the replayed subtraction.
	views, clones []*slot.Index
	violations    []string
}

// stepRound runs BeginRound → Evaluate → Apply → Finish, one span each. The
// harness's own publication is taken right after BeginRound, inside the
// evaluate span: being the round's first publication it pays the horizon
// extension the round's own would have paid, so the span still covers one
// full publication, search and optimization (plus two index clones).
func (rp *replayer) stepRound() (*metasched.IterationReport, error) {
	tr, lay := rp.tr, rp.lay
	id := tr.begin("metasched.begin_round")
	round, err := rp.s.svc.BeginRound()
	lay.add("metasched.begin_round_ms", tr.end(id))
	if err != nil {
		return nil, err
	}
	id = tr.begin("metasched.evaluate")
	if err = rp.publish(); err == nil {
		err = round.Evaluate()
	}
	lay.add("metasched.evaluate_ms", tr.end(id))
	if err != nil {
		return nil, err
	}
	id = tr.begin("metasched.apply")
	err = round.Apply()
	lay.add("metasched.apply_ms", tr.end(id))
	if err != nil {
		return nil, err
	}
	lay.add("metasched.stale_windows", float64(round.Iteration().StaleWindows()))
	id = tr.begin("metasched.finish")
	rep, err := round.Finish()
	lay.add("metasched.finish_ms", tr.end(id))
	return rep, err
}

// publish takes the harness's own publication and a second clone of it.
func (rp *replayer) publish() error {
	tr, lay := rp.tr, rp.lay
	grid := rp.s.sched.Grid()
	horizon := grid.Now().Add(rp.s.spec.horizon)
	id := tr.begin("gridsim.publish")
	var err error
	if rp.s.spec.shards > 1 {
		rp.views, err = grid.ShardViews(horizon)
	} else {
		var ix *slot.Index
		_, ix, err = grid.VacantView(horizon)
		rp.views = []*slot.Index{ix}
	}
	lay.add("gridsim.publish_ms", tr.end(id))
	if err != nil {
		return err
	}

	id = tr.begin("slot.clone")
	rp.clones = make([]*slot.Index, len(rp.views))
	n := 0
	for i, v := range rp.views {
		rp.clones[i] = v.Clone(nil)
		n += v.Len()
	}
	lay.add("slot.clone_us", tr.end(id)*1e3)
	lay.add("slot.len", float64(n))
	return nil
}

// replay re-runs the finished round's batch through search, subtraction and
// the DP on the held views.
func (rp *replayer) replay(rep *metasched.IterationReport) error {
	tr, lay, sp := rp.tr, rp.lay, rp.s.spec
	root := tr.begin("replay")
	defer tr.end(root)

	// The batch is every job the round resolved; unique priorities make the
	// scheduler's stable priority order recoverable by sorting.
	var jobs []*job.Job
	for _, p := range rep.Placed {
		jobs = append(jobs, rp.s.jobs[p.Job.Name])
	}
	for _, name := range append(append([]string(nil), rep.Postponed...), rep.Dropped...) {
		jobs = append(jobs, rp.s.jobs[name])
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Priority < jobs[k].Priority })
	batch, err := job.NewBatch(jobs)
	if err != nil {
		return err
	}

	opts := alloc.SearchOptions{MaxAlternativesPerJob: sp.altsPerJob}
	var res *alloc.SearchResult
	id := tr.begin("alloc.search")
	if sp.shards > 1 {
		work := &alloc.ShardWork{}
		res, err = alloc.FindAlternativesSharded(sp.algo, rp.views, rp.s.part.Of, batch, opts, 1, work)
		var ranks, most int64
		for _, n := range work.ScanSlots {
			ranks += n
			if n > most {
				most = n
			}
		}
		lay.add("shard.scan_ranks", float64(ranks))
		lay.add("shard.critpath_ranks", float64(work.CriticalPath))
		lay.add("shard.merged", float64(work.Merged))
		lay.add("shard.max_ranks", float64(most))
	} else {
		opts.Prebuilt = rp.views[0]
		res, err = alloc.FindAlternativesParallel(sp.algo, rp.views[0].List(), batch, opts, 1)
	}
	searchMs := tr.end(id)
	if err != nil {
		return err
	}
	windows := res.TotalAlternatives()
	if windows != rep.Alternatives {
		rp.violations = append(rp.violations, fmt.Sprintf("replay of iteration %d found %d alternatives, the round reported %d",
			rep.Iteration, windows, rep.Alternatives))
	}

	// A job's k-th window is found in pass k (a job that fails once fails
	// ever after: subtraction only removes vacancy), so pass order is
	// (k, batch order).
	id = tr.begin("slot.subtract")
	for k, found := 0, true; found; k++ {
		found = false
		for _, j := range batch.Jobs() {
			ws := res.Alternatives[j.Name]
			if k >= len(ws) {
				continue
			}
			found = true
			for _, pl := range ws[k].Placements {
				if err := rp.clones[rp.s.part.Of(pl.Source.Node)].SubtractInterval(pl.Source, pl.Used); err != nil {
					return fmt.Errorf("replaying subtraction: %w", err)
				}
			}
		}
	}
	subtractMs := tr.end(id)
	lay.add("alloc.search_ms", searchMs)
	lay.add("slot.subtract_ms", subtractMs)
	// Scanning is what the search did besides subtracting; the replayed
	// subtraction runs on a colder copy, so the difference can dip below 0.
	lay.add("alloc.scan_ms", math.Max(0, searchMs-subtractMs))
	lay.add("alloc.slots_examined", float64(res.Stats.SlotsExamined))
	lay.add("alloc.windows_found", float64(windows))

	var covered []*job.Job
	for _, j := range batch.Jobs() {
		if len(res.Alternatives[j.Name]) > 0 {
			covered = append(covered, j)
		}
	}
	var planTime, planCost float64
	if len(covered) > 0 {
		sub, err := job.NewBatch(covered)
		if err != nil {
			return err
		}
		id = tr.begin("dp.frontier")
		fr, plan, err := optimize(sp.policy, sub, dp.Alternatives(res.Alternatives))
		lay.add("dp.frontier_ms", tr.end(id))
		var infeasible *dp.ErrInfeasible
		if err != nil && !errors.As(err, &infeasible) {
			return err
		}
		if fr != nil {
			lay.add("dp.frontier_points", float64(fr.Size()))
			lay.add("dp.pruned", float64(fr.DominancePruned()))
		}
		if plan != nil {
			planTime, planCost = float64(plan.TotalTime), float64(plan.TotalCost)
		}
	}
	if planTime != float64(rep.PlanTime) || planCost != float64(rep.PlanCost) {
		rp.violations = append(rp.violations, fmt.Sprintf("replay of iteration %d planned T=%v C=%v, the round reported T=%v C=%v",
			rep.Iteration, planTime, planCost, rep.PlanTime, rep.PlanCost))
	}
	return nil
}

// optimize is the scheduler's second phase: frontier, limits, policy run.
func optimize(policy metasched.Policy, batch *job.Batch, alts dp.Alternatives) (*dp.Frontier, *dp.Plan, error) {
	fr, err := dp.NewFrontier(batch, alts)
	if err != nil {
		return nil, nil, err
	}
	limits, err := fr.Limits()
	if err != nil {
		return fr, nil, err
	}
	var plan *dp.Plan
	if policy == metasched.MinimizeCost {
		plan, err = fr.MinimizeCost(limits.Quota)
	} else {
		plan, err = fr.MinimizeTime(limits.Budget)
	}
	return fr, plan, err
}

// checkpoint makes the cadence's checkpoint as a timed call of its own and
// prices its parts from outside: state export and checkpoint encoding on the
// same state. It returns the real checkpoint's wall time in milliseconds, so
// it needs a tracer: only traced passes set explicitCkpt.
func (p *pass) checkpoint(s *session) (float64, error) {
	tr, lay := p.tr, p.lay
	id := tr.begin("durable.checkpoint")
	err := s.ds.Checkpoint()
	ms := tr.end(id)
	if err != nil {
		return 0, err
	}
	lay.add("durable.checkpoint_ms", ms)

	root := tr.begin("replay")
	defer tr.end(root)
	id = tr.begin("gridsim.export_state")
	gridState := s.sched.Grid().ExportState()
	lay.add("gridsim.export_state_ms", tr.end(id))
	svcState, err := s.svc.ExportState()
	if err != nil {
		return 0, err
	}
	id = tr.begin("codec.checkpoint_encode")
	data, err := codec.EncodeCheckpoint(&codec.Checkpoint{Grid: gridState, Sched: s.sched.ExportState(), Service: svcState})
	lay.add("codec.checkpoint_encode_ms", tr.end(id))
	lay.add("codec.checkpoint_mb", float64(len(data))/1e6)
	return ms, err
}

// journalSideMeasures prices the journal from outside on the closed
// session's own records: opening and scanning the file, encoding each
// record, and appending each to a side journal.
func journalSideMeasures(path, sidePath string, s *session, lay samples) error {
	start := time.Now()
	j, payloads, _, err := durable.OpenJournal(path, false, nil)
	if err != nil {
		return err
	}
	lay.add("durable.recover_open_ms", float64(time.Since(start))/1e6)
	if err := j.Close(); err != nil {
		return err
	}
	side, _, _, err := durable.OpenJournal(sidePath, false, nil)
	if err != nil {
		return err
	}
	defer os.Remove(sidePath)
	defer side.Close()
	pool := s.sched.Grid().Pool()
	for _, payload := range payloads {
		rec, err := codec.DecodeRecord(payload, pool)
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := codec.EncodeRecord(rec); err != nil {
			return err
		}
		lay.add("codec.encode_record_us", float64(time.Since(start))/1e3)
		start = time.Now()
		if err := side.Append(rec); err != nil {
			return err
		}
		lay.add("durable.journal_append_us", float64(time.Since(start))/1e3)
	}
	return nil
}
