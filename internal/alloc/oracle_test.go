package alloc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// cutWindow is the paper's cut (Fig. 1b) of every placement of w on a plain
// sorted slice: remove the source slot K, then insert the non-empty
// remainders K1 = [K.start, used.start) and K2 = [used.end, K.end), each
// after every slot that orders before or ties with it.
func cutWindow(slots []slot.Slot, w *slot.Window) ([]slot.Slot, error) {
	for _, p := range w.Placements {
		k := slices.Index(slots, p.Source)
		if k < 0 || !p.Source.Span.ContainsInterval(p.Used) {
			return nil, fmt.Errorf("cut window %q: %v not contained in a held slot %v", w.JobName, p.Used, p.Source)
		}
		slots = slices.Delete(slots, k, k+1)
		k1, k2 := p.Source, p.Source
		k1.Span.End = p.Used.Start
		k2.Span.Start = p.Used.End
		for _, r := range []slot.Slot{k1, k2} {
			if !r.Empty() {
				at := sort.Search(len(slots), func(i int) bool { return slot.Less(r, slots[i]) })
				slots = slices.Insert(slots, at, r)
			}
		}
	}
	return slots, nil
}

// findAlternativesLinear is the multi-pass reference: the production loop
// (multiPass) over the paper's raw front-to-back scan and the plain-slice
// cut (cutWindow) on a copy of the list's slots — no index, no views. Every
// indexed, prebuilt and sharded search in this package is compared against
// it; opts.Prebuilt is ignored. It also returns the working list after all
// subtractions.
func findAlternativesLinear(algo linearAlgorithm, list *slot.List, batch *job.Batch, opts SearchOptions) (*SearchResult, *slot.List, error) {
	working := slices.Clone(list.Slots())
	scan := func(j *job.Job) (*slot.Window, Stats, bool) { return algo.FindWindow(slot.NewList(working), j) }
	subtract := func(w *slot.Window) (err error) {
		working, err = cutWindow(working, w)
		return err
	}
	if opts.Metrics == nil {
		opts.Metrics = &disabledSearchMetrics
	}
	res, err := multiPass(algo.Name(), batch, opts, scan, subtract)
	if err != nil {
		return nil, nil, err
	}
	return res, slot.NewList(working), nil
}

// findAlternativesHeld is FindAlternatives over an index the test holds: the
// one FindAlternatives would build itself (NewIndex over list, with the
// search's index instruments), handed in as opts.Prebuilt. It also returns
// that index's vacancy after all subtractions.
func findAlternativesHeld(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions) (*SearchResult, *slot.List, error) {
	if opts.Metrics == nil {
		opts.Metrics = &disabledSearchMetrics
	}
	opts.Prebuilt = slot.NewIndex(list, opts.Metrics.Index)
	res, err := FindAlternatives(algo, list, batch, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, opts.Prebuilt.List(), nil
}

// viewsList merges the vacancy of the views a sharded search mutated in
// place into one list.
func viewsList(views []*slot.Index) *slot.List {
	lists := make([]*slot.List, len(views))
	for i, ix := range views {
		lists[i] = ix.List()
	}
	return slot.MergeLists(lists...)
}

// renderResult canonicalizes a SearchResult for byte-level comparison:
// algorithm, pass count, stats, every job's windows in discovery order, and
// the remaining list the search left behind.
func renderResult(t *testing.T, batch *job.Batch, res *SearchResult, remaining *slot.List) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "algo=%s passes=%d stats=%+v\n", res.Algorithm, res.Passes, res.Stats)
	for _, j := range batch.Jobs() {
		fmt.Fprintf(&b, "%s:", j.Name)
		for _, w := range res.Alternatives[j.Name] {
			fmt.Fprintf(&b, " %v", w)
		}
		b.WriteByte('\n')
	}
	b.WriteString("remaining:\n")
	b.WriteString(remaining.String())
	return b.String()
}

// diffScenario builds the seeded scenario for one differential case; odd
// seeds additionally put a completion deadline on every job to exercise the
// scan's early-break branch.
func diffScenario(t *testing.T, seed uint64) (*slot.List, *job.Batch) {
	t.Helper()
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if seed%2 == 1 {
		jobs := make([]*job.Job, 0, sc.Batch.Len())
		for _, j := range sc.Batch.Jobs() {
			cp := *j
			cp.Request.Deadline = sim.Time(800 + 50*int64(seed%7))
			jobs = append(jobs, &cp)
		}
		batch, err := job.NewBatch(jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return sc.Slots, batch
	}
	return sc.Slots, sc.Batch
}

// disjointBandsFixture builds the low-conflict large-batch scenario: classes
// of tagged nodes whose vacant bands occupy disjoint time ranges, with the
// highest-priority job's band last. Every job scans (and rejects) the other
// classes' slots, so scans are long and whole buckets are pruned by the
// tag-blind performance filter.
func disjointBandsFixture(classes, wavesPerClass, nodesPerClass int) (*slot.List, *job.Batch) {
	var slots []slot.Slot
	var jobs []*job.Job
	const (
		slotLen  = sim.Duration(130)
		bandGap  = sim.Time(20000)
		waveStep = sim.Duration(150)
	)
	for c := 0; c < classes; c++ {
		tag := fmt.Sprintf("g%d", c)
		// Highest-priority job (class 0) owns the latest band.
		bandStart := sim.Time(int64(classes-1-c)) * bandGap
		for n := 0; n < nodesPerClass; n++ {
			node := &resource.Node{
				Name:        fmt.Sprintf("%s-n%d", tag, n),
				Performance: 1,
				Price:       1,
				Attrs:       resource.Attributes{Tags: []string{tag}},
			}
			for w := 0; w < wavesPerClass; w++ {
				start := bandStart.Add(waveStep * sim.Duration(w))
				slots = append(slots, slot.New(node, start, start.Add(slotLen)))
			}
		}
		jobs = append(jobs, &job.Job{
			Name:     fmt.Sprintf("job-%s", tag),
			Priority: c + 1,
			Request: job.ResourceRequest{
				Nodes:          4,
				Time:           100,
				MinPerformance: 1,
				MaxPrice:       2,
				Needs:          resource.Requirements{Tags: []string{tag}},
			},
		})
	}
	return slot.NewList(slots), job.MustNewBatch(jobs)
}
