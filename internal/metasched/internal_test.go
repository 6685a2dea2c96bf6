package metasched

import (
	"fmt"
	"testing"

	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// bareScheduler builds a Scheduler with just enough state (a one-node grid)
// for the internal helpers under test.
func bareScheduler(t *testing.T) *Scheduler {
	t.Helper()
	g, err := gridsim.New(resource.MustNewPool([]*resource.Node{{Name: "n", Performance: 1, Price: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	return &Scheduler{grid: g}
}

// TestFindQueuedMiss pins the miss contract: findQueued must return nil for
// a name that is not in the queue, never a fabricated zero-value entry. A
// zero-value entry has submitTick 0, so a job placed through it would report
// WaitTime measured from the start of the simulation instead of from its
// actual submission.
func TestFindQueuedMiss(t *testing.T) {
	s := &Scheduler{queue: []*queued{
		{job: &job.Job{Name: "alpha"}, submitTick: 7},
		{job: &job.Job{Name: "beta"}, submitTick: 9},
	}}
	if got := s.findQueued("beta"); got == nil || got.submitTick != 9 {
		t.Fatalf("findQueued(beta) = %+v, want the queued entry with submitTick 9", got)
	}
	if got := s.findQueued("gamma"); got != nil {
		t.Fatalf("findQueued(gamma) = %+v, want nil for a job that was never queued", got)
	}
	empty := &Scheduler{}
	if got := empty.findQueued("alpha"); got != nil {
		t.Fatalf("findQueued on an empty queue = %+v, want nil", got)
	}
}

// TestBatchForIterationOrdering checks the priority sort on a large queue:
// ascending priority, and — because many jobs share a priority level — ties
// must keep submission order (stable sort). The queue itself must stay in
// submission order; only the picked batch is reordered.
func TestBatchForIterationOrdering(t *testing.T) {
	const n = 500
	s := bareScheduler(t)
	for i := 0; i < n; i++ {
		s.queue = append(s.queue, &queued{
			job: &job.Job{
				Name: fmt.Sprintf("job%03d", i),
				// Ten duplicate priority levels, interleaved so stability
				// is observable.
				Priority: i % 10,
			},
			submitTick: sim.Time(i),
		})
	}
	picked := s.batchForIteration()
	if len(picked) != n {
		t.Fatalf("batchForIteration returned %d jobs, want all %d with MaxBatch=0", len(picked), n)
	}
	for i := 1; i < len(picked); i++ {
		prev, cur := picked[i-1], picked[i]
		if prev.job.Priority > cur.job.Priority {
			t.Fatalf("position %d: priority %d before %d — not sorted ascending",
				i, prev.job.Priority, cur.job.Priority)
		}
		if prev.job.Priority == cur.job.Priority && prev.submitTick > cur.submitTick {
			t.Fatalf("position %d: priority %d tie broke submission order (%v before %v)",
				i, cur.job.Priority, prev.submitTick, cur.submitTick)
		}
	}
	// The queue itself must be untouched: batchForIteration sorts a copy.
	for i, q := range s.queue {
		if q.submitTick != sim.Time(i) {
			t.Fatalf("queue[%d].submitTick = %v; batchForIteration reordered the live queue", i, q.submitTick)
		}
	}

	// MaxBatch truncates after sorting, so the batch is the MaxBatch
	// highest-priority jobs, not the first MaxBatch submissions.
	s.cfg.MaxBatch = 25
	top := s.batchForIteration()
	if len(top) != 25 {
		t.Fatalf("batchForIteration returned %d jobs, want MaxBatch=25", len(top))
	}
	for i, q := range top {
		if q.job.Priority != 0 {
			t.Fatalf("top[%d] has priority %d; with 50 priority-0 jobs queued the capped batch must be all priority 0", i, q.job.Priority)
		}
	}
}
