package alloc

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/slot"
)

// FindAlternativesFair is the batch-at-once variant of the alternative
// search sketched in the paper's future work (Section 7: "slot selection for
// the whole job batch at once and not for each job consecutively").
//
// Instead of visiting jobs in fixed priority order — where an early
// high-priority job can grab slots a later job needed much more — each round
// *probes* the earliest window of every pending job on the current list and
// commits only the globally earliest one (ties broken by priority, then
// name). Within a pass every job receives at most one window, as in the
// sequential scheme; passes repeat until nothing new is found.
//
// The probing costs one extra search per committed window in the worst case
// (each round scans all pending jobs), trading CPU for earlier, fairer
// window starts. The ablation bench and the fairness experiment quantify the
// trade.
func FindAlternativesFair(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions) (*SearchResult, error) {
	if list == nil {
		return nil, fmt.Errorf("alloc: nil slot list")
	}
	// Probes are read-only between commits, so the one view serves every
	// probe of a round and is updated once per committed window.
	view := oneView(list, opts)
	scan, subtract, err := newScanner(algo, []*slot.Index{view}, nil, opts, nil)
	if err != nil {
		return nil, err
	}
	res, err := fairPasses(algo.Name(), batch, opts, scan, subtract)
	if err != nil {
		return nil, err
	}
	res.views = []*slot.Index{view}
	return res, nil
}

// fairPasses is the fair search's loop over a bound scan and subtraction;
// the caller sets the result's views.
func fairPasses(name string, batch *job.Batch, opts SearchOptions, scan scanFunc, subtract func(*slot.Window) error) (*SearchResult, error) {
	if batch == nil || batch.Len() == 0 {
		return nil, fmt.Errorf("alloc: empty batch")
	}
	res := &SearchResult{
		Algorithm:    name + "/fair",
		Alternatives: make(map[string][]*slot.Window, batch.Len()),
	}
	maxPasses, perJobCap := opts.caps()

	for pass := 0; ; pass++ {
		if maxPasses > 0 && pass >= maxPasses {
			break
		}
		res.Passes++
		// pending: jobs still without a window in this pass.
		pending := make([]*job.Job, 0, batch.Len())
		for _, j := range batch.Jobs() {
			if perJobCap > 0 && len(res.Alternatives[j.Name]) >= perJobCap {
				continue
			}
			pending = append(pending, j)
		}
		foundAny := false
		for len(pending) > 0 {
			// Probe every pending job and keep the globally earliest
			// window. Probes on the unchanged list are read-only, so
			// only the winner's subtraction mutates state.
			bestIdx := -1
			var best *slot.Window
			for idx, j := range pending {
				w, stats, ok := scan(j)
				res.Stats.Add(stats)
				if !ok {
					continue
				}
				if best == nil || earlierWindow(w, pending[idx], best, pending[bestIdx]) {
					best, bestIdx = w, idx
				}
			}
			if best == nil {
				break
			}
			if err := best.Validate(); err != nil {
				return nil, fmt.Errorf("alloc: %s produced invalid window: %w", name, err)
			}
			if err := subtract(best); err != nil {
				return nil, err
			}
			res.Alternatives[best.JobName] = append(res.Alternatives[best.JobName], best)
			pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
			foundAny = true
		}
		if !foundAny {
			break
		}
	}
	return res, nil
}

// earlierWindow orders candidate (w, j) before (bestW, bestJ) when it starts
// earlier; ties fall back to priority, then name for determinism.
func earlierWindow(w *slot.Window, j *job.Job, bestW *slot.Window, bestJ *job.Job) bool {
	if w.Start() != bestW.Start() {
		return w.Start() < bestW.Start()
	}
	if j.Priority != bestJ.Priority {
		return j.Priority < bestJ.Priority
	}
	return j.Name < bestJ.Name
}
