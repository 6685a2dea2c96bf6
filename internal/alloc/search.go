package alloc

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/slot"
)

// SearchOptions tunes the multi-pass alternative search.
type SearchOptions struct {
	// MaxAlternativesPerJob stops searching for a job once it has this
	// many alternatives; 0 means unlimited. Jobs at their cap are skipped
	// but the pass continues for the others.
	MaxAlternativesPerJob int
	// FirstOnly limits the search to a single pass collecting at most one
	// alternative per job — the degenerate mode most classical schedulers
	// use, kept for the search-passes ablation.
	FirstOnly bool
	// Prebuilt, when non-nil, is a ready-made index FindAlternatives
	// searches instead of building one over a clone of the input list — the
	// grid's live store hands out such clones so the steady-state path never
	// pays a NewIndex (gridsim.ShardViews). The caller transfers ownership:
	// the search subtracts its windows from the index and does not read the
	// input list argument. Scan results do not depend on the index's bucket
	// layout (the scan-order contract), so a prebuilt index whose tiling
	// reflects its maintenance history returns the windows of a fresh build.
	// FindAlternativesSharded takes its views as an argument and rejects
	// this field.
	Prebuilt *slot.Index
	// Metrics receives the search's observability counters (windows found,
	// scan lengths, pass counts). Instrumentation never influences which
	// windows are found, and nil, like a holder built from a nil registry,
	// costs nothing (see internal/metrics).
	Metrics *SearchMetrics
}

// SearchResult is the outcome of FindAlternatives: for every job of the
// batch, the list of execution alternatives found, plus search-wide
// accounting.
type SearchResult struct {
	// Algorithm is the name of the window-search algorithm used.
	Algorithm string
	// Alternatives maps job name to that job's windows, in discovery
	// order (earlier passes first). Windows are pairwise disjoint across
	// the whole map.
	Alternatives map[string][]*slot.Window
	// Passes is the number of full passes performed, including the final
	// empty one that terminated the search — except when every job had
	// already reached MaxAlternativesPerJob, in which case the would-be
	// pass could not scan anything and is neither run nor counted.
	Passes int
	// Stats accumulates the per-search counters across all window
	// searches.
	Stats Stats
}

// TotalAlternatives returns the number of windows found across all jobs.
func (r *SearchResult) TotalAlternatives() int {
	var n int
	for _, ws := range r.Alternatives {
		n += len(ws)
	}
	return n
}

// AllJobsCovered reports whether every job of the batch has at least one
// alternative — the paper's criterion for keeping an experiment.
func (r *SearchResult) AllJobsCovered(batch *job.Batch) bool {
	for _, j := range batch.Jobs() {
		if len(r.Alternatives[j.Name]) == 0 {
			return false
		}
	}
	return true
}

// FindAlternatives runs the paper's Section 2 scheme: scan the batch in
// priority order, find one window per job per pass with the given algorithm,
// subtract each found window from the working copy of the vacant list, and
// repeat until a full pass finds nothing (or an option cap is hit).
//
// Because every window is subtracted before the next search, the returned
// alternatives never intersect in processor time: any per-job selection the
// optimizer makes is simultaneously feasible without revising other jobs'
// assignments.
//
// This is the one-view case of FindAlternativesSharded: the view is
// opts.Prebuilt when the caller supplies one, otherwise an index built over
// a clone of list.
func FindAlternatives(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions) (*SearchResult, error) {
	if list == nil {
		return nil, fmt.Errorf("alloc: nil slot list")
	}
	if opts.Metrics == nil {
		opts.Metrics = &disabledSearchMetrics
	}
	view := opts.Prebuilt
	if view == nil {
		view = slot.NewIndex(list, opts.Metrics.Index)
	}
	return searchViews(algo, []*slot.Index{view}, nil, batch, opts, nil)
}

// FindAlternativesParallel forwards to FindAlternatives; parallelism is
// ignored.
//
// Deprecated: the speculative pipeline it named is gone. Call
// FindAlternatives.
func FindAlternativesParallel(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions, parallelism int) (*SearchResult, error) {
	return FindAlternatives(algo, list, batch, opts)
}

// scanFunc is one job's window scan over the search's current vacancy.
type scanFunc func(*job.Job) (*slot.Window, Stats, bool)

// searchViews is the search every entry point reduces to: the multi-pass
// loop over K >= 1 node-disjoint views, which it mutates in place. The entry
// points have mapped a nil opts.Metrics to the disabled holder.
func searchViews(algo Algorithm, views []*slot.Index, shardOf func(*resource.Node) int,
	batch *job.Batch, opts SearchOptions, work *ShardWork) (*SearchResult, error) {
	scan, subtract, err := newScanner(algo, views, shardOf, opts, work)
	if err != nil {
		return nil, err
	}
	return multiPass(algo.Name(), batch, opts, scan, subtract)
}

// multiPass is the Section 2 loop, the only one in the package: passes over
// the batch in priority order, the per-job cap, the pass cap, window
// validation, subtraction and the search metrics.
func multiPass(name string, batch *job.Batch, opts SearchOptions, scan scanFunc, subtract func(*slot.Window) error) (*SearchResult, error) {
	if batch == nil || batch.Len() == 0 {
		return nil, fmt.Errorf("alloc: empty batch")
	}
	res := &SearchResult{
		Algorithm:    name,
		Alternatives: make(map[string][]*slot.Window, batch.Len()),
	}
	maxPasses, perJobCap := opts.caps()
	opts.Metrics.Searches.Inc()

	for pass := 0; ; pass++ {
		if maxPasses > 0 && pass >= maxPasses {
			break
		}
		// A pass in which every job already holds its cap of alternatives
		// would skip every job and find nothing: don't run it, don't count
		// it.
		if perJobCap > 0 {
			capped := true
			for _, j := range batch.Jobs() {
				if len(res.Alternatives[j.Name]) < perJobCap {
					capped = false
					break
				}
			}
			if capped {
				break
			}
		}
		res.Passes++
		opts.Metrics.Passes.Inc()
		foundAny := false
		for _, j := range batch.Jobs() {
			if perJobCap > 0 && len(res.Alternatives[j.Name]) >= perJobCap {
				continue
			}
			w, stats, ok := scan(j)
			res.Stats.Add(stats)
			opts.Metrics.scanDone(stats, ok)
			if !ok {
				continue
			}
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("alloc: %s produced invalid window: %w", name, err)
			}
			if err := subtract(w); err != nil {
				return nil, err
			}
			res.Alternatives[j.Name] = append(res.Alternatives[j.Name], w)
			foundAny = true
		}
		if !foundAny {
			break
		}
	}
	return res, nil
}

// caps resolves the pass cap and the per-job cap, FirstOnly being one pass
// of one window each. Otherwise no pass cap applies: the search ends when a
// full pass finds nothing, which always terminates because every found
// window strictly shrinks the vacant time in the list.
func (o SearchOptions) caps() (maxPasses, perJobCap int) {
	if o.FirstOnly {
		return 1, 1
	}
	return 0, o.MaxAlternativesPerJob
}

// newScanner binds the per-job window scan and the window subtraction to the
// search's views. The views are the search's working state: the scan reads
// them, every subtraction goes through the index owning the placement's node
// so the buckets stay consistent, and nothing is rebuilt between passes.
//
// The scan selects from the view count: one view is scanned directly by the
// indexed stream (no cursor buffers, no merge, and the only path that records
// the index probe — a merge's traversal depends on the refill schedule), more
// than one by the cross-shard cursor merge. Both return byte-identical
// windows and Stats for the same vacancy.
func newScanner(algo Algorithm, views []*slot.Index, shardOf func(*resource.Node) int,
	opts SearchOptions, work *ShardWork) (scanFunc, func(*slot.Window) error, error) {
	if algo == nil {
		return nil, nil, fmt.Errorf("alloc: nil algorithm")
	}
	if len(views) == 0 {
		return nil, nil, fmt.Errorf("alloc: no views to search")
	}
	if shardOf == nil && len(views) > 1 {
		return nil, nil, fmt.Errorf("alloc: nil shard assignment with %d views", len(views))
	}
	if work != nil && len(work.ScanSlots) < len(views) {
		work.ScanSlots = make([]int64, len(views))
	}
	for _, ix := range views {
		ix.SetMetrics(opts.Metrics.Index)
	}
	// The probe exists only when metrics are attached, keeping the disabled
	// path allocation-free.
	var probe *slot.ScanStats
	if opts.Metrics.IndexScans != nil {
		probe = &slot.ScanStats{}
	}
	var merge *mergeScan
	if len(views) > 1 {
		merge = newMergeScan(views)
	}
	st := algo.newScan()
	scan := func(j *job.Job) (*slot.Window, Stats, bool) {
		if merge != nil {
			return merge.findWindow(algo, st, j, work)
		}
		if probe == nil {
			return findWindowIndexedStream(algo, st, views[0], j, nil)
		}
		*probe = slot.ScanStats{}
		w, stats, ok := findWindowIndexedStream(algo, st, views[0], j, probe)
		opts.Metrics.probeDone(*probe)
		return w, stats, ok
	}
	subtract := func(w *slot.Window) error {
		for _, p := range w.Placements {
			i := 0
			if shardOf != nil {
				i = shardOf(p.Source.Node)
			}
			if i < 0 || i >= len(views) {
				return fmt.Errorf("alloc: subtract window %q: node %s assigned to view %d of %d", w.JobName, p.Source.Node.Label(), i, len(views))
			}
			if err := views[i].SubtractInterval(p.Source, p.Used); err != nil {
				return fmt.Errorf("alloc: subtract window %q: %w", w.JobName, err)
			}
		}
		return nil
	}
	return scan, subtract, nil
}

// FindFirst returns only the earliest alternative per job — one pass, one
// window each — which is what a non-multi-variant scheduler would use.
func FindFirst(algo Algorithm, list *slot.List, batch *job.Batch) (*SearchResult, error) {
	return FindAlternatives(algo, list, batch, SearchOptions{FirstOnly: true})
}
