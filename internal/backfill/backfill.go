// Package backfill implements the baseline the paper positions ALP/AMP
// against (Section 3, refs [11, 12]): backfilling over dedicated,
// homogeneous resources. Backfilling finds rectangular windows of N
// concurrent slots for jobs whose tasks have identical requirements; it has
// no notion of prices or per-node performance, and its earliest-window scan
// over per-node busy timelines is quadratic in the number of occupied
// intervals, versus the linear single scan of ALP/AMP.
//
// Two classical variants are provided on top of the same timeline substrate:
//
//   - Conservative backfilling: every queued job gets a reservation at its
//     earliest feasible start; later jobs may only fill holes that do not
//     disturb any earlier reservation.
//   - EASY (aggressive) backfilling: only the head-of-queue job holds a
//     reservation; any other job may be started out of order if it does not
//     delay that single reservation.
package backfill

import (
	"fmt"
	"sort"

	"ecosched/internal/sim"
)

// Reservation is a scheduled run: count nodes for the interval, on the
// node indices listed in Nodes.
type Reservation struct {
	JobName string
	Nodes   []int
	Span    sim.Interval
}

// Cluster is a homogeneous machine with per-node busy timelines. All nodes
// are interchangeable; a job asks for a node count and a duration.
type Cluster struct {
	n    int
	busy [][]sim.Interval // per node, sorted, non-overlapping
}

// NewCluster builds a cluster of n identical nodes, all idle.
func NewCluster(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("backfill: cluster needs at least one node, got %d", n)
	}
	return &Cluster{n: n, busy: make([][]sim.Interval, n)}, nil
}

// BusyIntervals returns the number of busy intervals across all nodes — the
// m that the backfill scan is quadratic in.
func (c *Cluster) BusyIntervals() int {
	var total int
	for _, iv := range c.busy {
		total += len(iv)
	}
	return total
}

// Occupy marks [start, start+d) busy on the given node. Intervals may touch
// but must not overlap existing ones.
func (c *Cluster) Occupy(node int, start sim.Time, d sim.Duration) error {
	if node < 0 || node >= c.n {
		return fmt.Errorf("backfill: node %d out of range [0, %d)", node, c.n)
	}
	if d <= 0 {
		return fmt.Errorf("backfill: non-positive duration %v", d)
	}
	iv := sim.Interval{Start: start, End: start.Add(d)}
	list := c.busy[node]
	i := sort.Search(len(list), func(i int) bool { return list[i].Start >= iv.Start })
	if i > 0 && list[i-1].End > iv.Start {
		return fmt.Errorf("backfill: node %d interval %v overlaps %v", node, iv, list[i-1])
	}
	if i < len(list) && list[i].Start < iv.End {
		return fmt.Errorf("backfill: node %d interval %v overlaps %v", node, iv, list[i])
	}
	list = append(list, sim.Interval{})
	copy(list[i+1:], list[i:])
	list[i] = iv
	c.busy[node] = list
	return nil
}

// freeAt reports whether node is idle during [start, start+d).
func (c *Cluster) freeAt(node int, start sim.Time, d sim.Duration) bool {
	iv := sim.Interval{Start: start, End: start.Add(d)}
	list := c.busy[node]
	i := sort.Search(len(list), func(i int) bool { return list[i].End > iv.Start })
	return i >= len(list) || !list[i].Overlaps(iv)
}

// EarliestWindow returns the earliest start time at which count nodes are
// simultaneously idle for duration d, and the node indices. The scan visits
// every busy-interval end point as a candidate start and, for each, checks
// node availability against the busy lists — the O(m²)-flavored probing the
// paper attributes to backfilling.
func (c *Cluster) EarliestWindow(count int, d sim.Duration) (sim.Time, []int, error) {
	if count <= 0 || count > c.n {
		return 0, nil, fmt.Errorf("backfill: window of %d nodes on %d-node cluster", count, c.n)
	}
	if d <= 0 {
		return 0, nil, fmt.Errorf("backfill: non-positive duration %v", d)
	}
	// Candidate starts: time zero and every busy-interval end.
	candidates := []sim.Time{0}
	for _, list := range c.busy {
		for _, iv := range list {
			candidates = append(candidates, iv.End)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for _, t := range candidates {
		var nodes []int
		for node := 0; node < c.n && len(nodes) < count; node++ {
			if c.freeAt(node, t, d) {
				nodes = append(nodes, node)
			}
		}
		if len(nodes) == count {
			return t, nodes, nil
		}
	}
	// Unreachable: after the last busy end every node is idle forever.
	return 0, nil, fmt.Errorf("backfill: no window found (unbounded horizon exhausted)")
}

// StartableAt reports whether count nodes are idle for d starting exactly
// at t, returning the nodes when so.
func (c *Cluster) StartableAt(t sim.Time, count int, d sim.Duration) ([]int, bool) {
	var nodes []int
	for node := 0; node < c.n && len(nodes) < count; node++ {
		if c.freeAt(node, t, d) {
			nodes = append(nodes, node)
		}
	}
	if len(nodes) == count {
		return nodes, true
	}
	return nil, false
}
