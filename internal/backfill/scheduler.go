package backfill

import (
	"fmt"
	"sort"

	"ecosched/internal/sim"
)

// QueuedJob is a rigid parallel job for the backfilling baseline: count
// identical nodes for a fixed duration, released into the queue at Arrival.
type QueuedJob struct {
	Name     string
	Nodes    int
	Duration sim.Duration
	Arrival  sim.Time
}

// Validate checks the job.
func (q QueuedJob) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("backfill: job with empty name")
	}
	if q.Nodes <= 0 {
		return fmt.Errorf("backfill: job %s requests %d nodes", q.Name, q.Nodes)
	}
	if q.Duration <= 0 {
		return fmt.Errorf("backfill: job %s has duration %v", q.Name, q.Duration)
	}
	if q.Arrival < 0 {
		return fmt.Errorf("backfill: job %s arrives at %v", q.Name, q.Arrival)
	}
	return nil
}

// Variant selects the backfilling flavor.
type Variant int

const (
	// Conservative gives every queued job a reservation; backfilled jobs
	// may not delay any of them.
	Conservative Variant = iota
	// EASY reserves only for the head of the queue; backfilled jobs may
	// not delay that single reservation.
	EASY
)

// String names the variant.
func (v Variant) String() string {
	if v == EASY {
		return "EASY"
	}
	return "conservative"
}

// Schedule is the result of running the baseline scheduler over a queue.
type Schedule struct {
	Variant      Variant
	Reservations []Reservation
	// Makespan is the latest completion time.
	Makespan sim.Time
	// TotalWait is the summed (start − arrival) over jobs.
	TotalWait sim.Duration
}

// Run schedules the queue (in arrival order; FCFS base order) on a fresh
// cluster of the given size with the selected backfilling variant and
// returns the schedule.
//
// Both variants share the mechanics: jobs are taken FCFS; the head job is
// placed at its earliest window; the remaining jobs are examined in order
// and started early ("backfilled") when a window exists that does not
// disturb the protected reservations (all earlier queued jobs for
// Conservative, only the head job for EASY).
func Run(variant Variant, clusterSize int, queue []QueuedJob) (*Schedule, error) {
	cluster, err := NewCluster(clusterSize)
	if err != nil {
		return nil, err
	}
	jobs := make([]QueuedJob, len(queue))
	copy(jobs, queue)
	for _, q := range jobs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		if q.Nodes > clusterSize {
			return nil, fmt.Errorf("backfill: job %s needs %d nodes, cluster has %d", q.Name, q.Nodes, clusterSize)
		}
	}
	// Stable FCFS order by arrival.
	sortStableByArrival(jobs)

	sched := &Schedule{Variant: variant}
	switch variant {
	case Conservative:
		// Every job is reserved at its earliest window in queue order;
		// because each reservation is committed to the timelines before
		// the next job is examined, later jobs can only slide into holes
		// that leave earlier reservations untouched — which is exactly
		// the conservative guarantee.
		for _, q := range jobs {
			r, err := reserveAfter(cluster, q)
			if err != nil {
				return nil, err
			}
			record(sched, q, r)
		}
	case EASY:
		pending := jobs
		for len(pending) > 0 {
			head := pending[0]
			// Head gets the binding reservation.
			r, err := reserveAfter(cluster, head)
			if err != nil {
				return nil, err
			}
			record(sched, head, r)
			shadow := r.Span.Start
			pending = pending[1:]
			// Backfill pass: start any later job whose run fits
			// strictly before the head's reserved start or does not
			// overlap the head's nodes... with homogeneous nodes it
			// suffices that a window exists starting no later than
			// the shadow time leaving the head's start intact; the
			// head's reservation is already committed, so any window
			// EarliestWindow finds cannot disturb it.
			remaining := pending[:0]
			for _, q := range pending {
				start, nodes, err := cluster.EarliestWindow(q.Nodes, q.Duration)
				if err != nil {
					return nil, err
				}
				if start.Max(q.Arrival) <= shadow && start >= q.Arrival {
					for _, node := range nodes {
						if err := cluster.Occupy(node, start, q.Duration); err != nil {
							return nil, err
						}
					}
					record(sched, q, Reservation{JobName: q.Name, Nodes: nodes,
						Span: sim.Interval{Start: start, End: start.Add(q.Duration)}})
					continue
				}
				remaining = append(remaining, q)
			}
			pending = remaining
		}
	default:
		return nil, fmt.Errorf("backfill: unknown variant %d", variant)
	}
	return sched, nil
}

// reserveAfter reserves q's window no earlier than its arrival.
func reserveAfter(c *Cluster, q QueuedJob) (Reservation, error) {
	// Find the earliest window; if it precedes the arrival, probe again
	// from the arrival time by temporarily treating [0, arrival) as busy
	// via candidate filtering.
	start, nodes, err := c.EarliestWindow(q.Nodes, q.Duration)
	if err != nil {
		return Reservation{}, err
	}
	if start < q.Arrival {
		// Re-probe at the arrival instant and at every busy end after
		// it; StartableAt at q.Arrival covers the common case, then
		// fall back to scanning ends.
		if ns, ok := c.StartableAt(q.Arrival, q.Nodes, q.Duration); ok {
			start, nodes = q.Arrival, ns
		} else {
			start, nodes, err = c.earliestWindowFrom(q.Arrival, q.Nodes, q.Duration)
			if err != nil {
				return Reservation{}, err
			}
		}
	}
	for _, node := range nodes {
		if err := c.Occupy(node, start, q.Duration); err != nil {
			return Reservation{}, fmt.Errorf("backfill: reserving %s: %w", q.Name, err)
		}
	}
	return Reservation{JobName: q.Name, Nodes: nodes, Span: sim.Interval{Start: start, End: start.Add(q.Duration)}}, nil
}

// earliestWindowFrom is EarliestWindow restricted to starts >= from.
func (c *Cluster) earliestWindowFrom(from sim.Time, count int, d sim.Duration) (sim.Time, []int, error) {
	candidates := []sim.Time{from}
	for _, list := range c.busy {
		for _, iv := range list {
			if iv.End >= from {
				candidates = append(candidates, iv.End)
			}
		}
	}
	sortTimes(candidates)
	for _, t := range candidates {
		if nodes, ok := c.StartableAt(t, count, d); ok {
			return t, nodes, nil
		}
	}
	return 0, nil, fmt.Errorf("backfill: no window found from %v", from)
}

func record(s *Schedule, q QueuedJob, r Reservation) {
	s.Reservations = append(s.Reservations, r)
	if r.Span.End > s.Makespan {
		s.Makespan = r.Span.End
	}
	if r.Span.Start > q.Arrival {
		s.TotalWait += r.Span.Start.Sub(q.Arrival)
	}
}

func sortStableByArrival(jobs []QueuedJob) {
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Arrival < jobs[k].Arrival })
}

func sortTimes(ts []sim.Time) {
	sort.Slice(ts, func(i, k int) bool { return ts[i] < ts[k] })
}
