package gridsim

import (
	"fmt"
	"strconv"

	"ecosched/internal/sim"
)

// LocalLoad parameterizes the owner-local task flow that makes resources
// non-dedicated: each node receives a stream of local tasks with
// exponentially distributed inter-arrival gaps and uniformly distributed
// durations, occupying the node alongside VO reservations.
type LocalLoad struct {
	// MeanGap is the mean idle gap between consecutive local tasks on a
	// node.
	MeanGap float64
	// DurMin/DurMax bound local task durations.
	DurMin, DurMax sim.Duration
}

// Validate checks the parameters.
func (l LocalLoad) Validate() error {
	if l.MeanGap < 0 {
		return fmt.Errorf("gridsim: negative mean gap %v", l.MeanGap)
	}
	if l.DurMin <= 0 || l.DurMax < l.DurMin {
		return fmt.Errorf("gridsim: local task duration range [%v, %v] invalid", l.DurMin, l.DurMax)
	}
	return nil
}

// Populate books local tasks on every node of the grid over [from, to),
// skipping over intervals that are already booked. Task names are
// p<node>-<k> following the paper's p1..p7 convention.
func (g *Grid) Populate(load LocalLoad, from, to sim.Time, rng *sim.RNG) error {
	if err := load.Validate(); err != nil {
		return err
	}
	if from < g.now {
		from = g.now
	}
	if to <= from {
		return fmt.Errorf("gridsim: populate range [%v, %v) empty", from, to)
	}
	var name []byte
	for _, n := range g.pool.Nodes() {
		cursor := from
		k := 0
		for cursor < to {
			gap := sim.Duration(rng.Exp(load.MeanGap))
			start := cursor.Add(gap)
			if start >= to {
				break
			}
			dur := rng.DurationBetween(load.DurMin, load.DurMax)
			end := start.Add(dur)
			if end > to {
				end = to
			}
			k++
			name = append(strconv.AppendInt(append(name[:0], 'p'), int64(n.ID), 10), '-')
			name = strconv.AppendInt(name, int64(k), 10)
			task := Task{
				Name:  string(name),
				Node:  n.ID,
				Span:  sim.Interval{Start: start, End: end},
				Local: true,
			}
			if err := g.Book(task); err != nil {
				// Collision with an existing booking: skip past it.
				g.metrics.BookCollisions.Inc()
				cursor = start + 1
				continue
			}
			g.metrics.LocalTasksBooked.Inc()
			cursor = end
		}
	}
	return nil
}
