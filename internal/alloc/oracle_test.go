package alloc

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// linearScanner is the reference binding of a search to its vacancy: the
// paper's raw front-to-back scan and plain list subtraction over a clone of
// the list — no index, no views.
func linearScanner(algo Algorithm, list *slot.List) (*slot.List, scanFunc, func(*slot.Window) error) {
	working := list.Clone()
	return working, func(j *job.Job) (*slot.Window, Stats, bool) { return algo.FindWindow(working, j) },
		working.SubtractWindow
}

// findAlternativesLinear is the multi-pass reference: the production loop
// (multiPass) over linearScanner. Every indexed, prebuilt and sharded search
// in this package is compared against it; opts.Prebuilt is ignored. It also
// returns the working list after all subtractions.
func findAlternativesLinear(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions) (*SearchResult, *slot.List, error) {
	working, scan, subtract := linearScanner(algo, list)
	if opts.Metrics == nil {
		opts.Metrics = &disabledSearchMetrics
	}
	res, err := multiPass(algo.Name(), batch, opts, scan, subtract)
	if err != nil {
		return nil, nil, err
	}
	return res, working, nil
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
