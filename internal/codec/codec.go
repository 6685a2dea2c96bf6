// Package codec serializes scheduling scenarios — node pools, vacant-slot
// lists, and job batches — to and from JSON. It makes generated workloads
// exchangeable artifacts: an interesting scheduling iteration can be
// exported, attached to a bug report or EXPERIMENTS.md entry, and replayed
// bit-for-bit, which mirrors how local resource managers would publish their
// schedules to the metascheduler in a real deployment.
//
// The wire format is deliberately flat and versioned. Node identity is
// positional: slots reference nodes by index into the pool array.
package codec

import (
	"encoding/json"
	"fmt"
	"io"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// FormatVersion identifies the wire format; bump on incompatible changes.
const FormatVersion = 1

// nodeJSON is the wire form of a resource.Node.
type nodeJSON struct {
	Name        string   `json:"name"`
	Performance float64  `json:"performance"`
	Price       float64  `json:"price"`
	Domain      string   `json:"domain,omitempty"`
	RAMMB       int      `json:"ram_mb,omitempty"`
	DiskGB      int      `json:"disk_gb,omitempty"`
	OS          string   `json:"os,omitempty"`
	Tags        []string `json:"tags,omitempty"`
}

// slotJSON is the wire form of a slot.Slot.
type slotJSON struct {
	Node  int     `json:"node"` // index into the pool
	Price float64 `json:"price"`
	Start int64   `json:"start"`
	End   int64   `json:"end"`
}

// jobJSON is the wire form of a job.Job. Scenarios, journal records, and
// checkpoints all share it, so a job round-trips identically whichever
// document carries it.
type jobJSON struct {
	Name         string   `json:"name"`
	Priority     int      `json:"priority"`
	Nodes        int      `json:"nodes"`
	Time         int64    `json:"time"`
	MinPerf      float64  `json:"min_performance"`
	MaxPrice     float64  `json:"max_price"`
	BudgetFactor float64  `json:"budget_factor,omitempty"`
	MinRAMMB     int      `json:"min_ram_mb,omitempty"`
	MinDiskGB    int      `json:"min_disk_gb,omitempty"`
	OS           string   `json:"os,omitempty"`
	Tags         []string `json:"tags,omitempty"`
	Deadline     int64    `json:"deadline,omitempty"`
}

// jobToWire converts a job to its wire form.
func jobToWire(j *job.Job) jobJSON {
	return jobJSON{
		Name:         j.Name,
		Priority:     j.Priority,
		Nodes:        j.Request.Nodes,
		Time:         int64(j.Request.Time),
		MinPerf:      j.Request.MinPerformance,
		MaxPrice:     float64(j.Request.MaxPrice),
		BudgetFactor: j.Request.BudgetFactor,
		MinRAMMB:     j.Request.Needs.MinRAMMB,
		MinDiskGB:    j.Request.Needs.MinDiskGB,
		OS:           j.Request.Needs.OS,
		Tags:         j.Request.Needs.Tags,
		Deadline:     int64(j.Request.Deadline),
	}
}

// jobFromWire rebuilds a job from its wire form (structural validation is the
// caller's: scenarios validate through NewBatch, records through Validate).
func jobFromWire(w jobJSON) *job.Job {
	return &job.Job{
		Name:     w.Name,
		Priority: w.Priority,
		Request: job.ResourceRequest{
			Nodes:          w.Nodes,
			Time:           sim.Duration(w.Time),
			MinPerformance: w.MinPerf,
			MaxPrice:       sim.Money(w.MaxPrice),
			BudgetFactor:   w.BudgetFactor,
			Needs: resource.Requirements{
				MinRAMMB:  w.MinRAMMB,
				MinDiskGB: w.MinDiskGB,
				OS:        w.OS,
				Tags:      w.Tags,
			},
			Deadline: sim.Time(w.Deadline),
		},
	}
}

// scenarioJSON is the top-level wire document.
type scenarioJSON struct {
	Version int        `json:"version"`
	Nodes   []nodeJSON `json:"nodes"`
	Slots   []slotJSON `json:"slots"`
	Jobs    []jobJSON  `json:"jobs"`
}

// EncodeScenario writes the scenario as indented JSON.
func EncodeScenario(w io.Writer, sc *workload.Scenario) error {
	if sc == nil || sc.Pool == nil || sc.Slots == nil || sc.Batch == nil {
		return fmt.Errorf("codec: incomplete scenario")
	}
	doc := scenarioJSON{Version: FormatVersion}
	index := make(map[*resource.Node]int, sc.Pool.Size())
	for i, n := range sc.Pool.Nodes() {
		index[n] = i
		doc.Nodes = append(doc.Nodes, nodeJSON{
			Name:        n.Name,
			Performance: n.Performance,
			Price:       float64(n.Price),
			Domain:      n.Domain,
			RAMMB:       n.Attrs.RAMMB,
			DiskGB:      n.Attrs.DiskGB,
			OS:          n.Attrs.OS,
			Tags:        n.Attrs.Tags,
		})
	}
	for _, s := range sc.Slots.Slots() {
		idx, ok := index[s.Node]
		if !ok {
			return fmt.Errorf("codec: slot %v references a node outside the pool", s)
		}
		doc.Slots = append(doc.Slots, slotJSON{
			Node:  idx,
			Price: float64(s.Price),
			Start: int64(s.Start()),
			End:   int64(s.End()),
		})
	}
	for _, j := range sc.Batch.Jobs() {
		doc.Jobs = append(doc.Jobs, jobToWire(j))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DecodeScenario reads a scenario document, validating everything through
// the regular constructors.
func DecodeScenario(r io.Reader) (*workload.Scenario, error) {
	var doc scenarioJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if doc.Version != FormatVersion {
		return nil, fmt.Errorf("codec: unsupported format version %d (want %d)", doc.Version, FormatVersion)
	}
	nodes := make([]*resource.Node, 0, len(doc.Nodes))
	for _, n := range doc.Nodes {
		nodes = append(nodes, &resource.Node{
			Name:        n.Name,
			Performance: n.Performance,
			Price:       sim.Money(n.Price),
			Domain:      n.Domain,
			Attrs: resource.Attributes{
				RAMMB:  n.RAMMB,
				DiskGB: n.DiskGB,
				OS:     n.OS,
				Tags:   n.Tags,
			},
		})
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	slots := make([]slot.Slot, 0, len(doc.Slots))
	for i, s := range doc.Slots {
		node := pool.Node(resource.NodeID(s.Node))
		if node == nil {
			return nil, fmt.Errorf("codec: slot %d references unknown node %d", i, s.Node)
		}
		sl := slot.Slot{
			Node:  node,
			Price: sim.Money(s.Price),
			Span:  sim.Interval{Start: sim.Time(s.Start), End: sim.Time(s.End)},
		}
		if err := sl.Validate(); err != nil {
			return nil, fmt.Errorf("codec: slot %d: %w", i, err)
		}
		slots = append(slots, sl)
	}
	jobs := make([]*job.Job, 0, len(doc.Jobs))
	for _, j := range doc.Jobs {
		jobs = append(jobs, jobFromWire(j))
	}
	batch, err := job.NewBatch(jobs)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	list := slot.NewList(slots)
	if list.OverlapOnSameNode() {
		return nil, fmt.Errorf("codec: vacant slots overlap on one node; a node's vacant slots must be disjoint")
	}
	return &workload.Scenario{Pool: pool, Slots: list, Batch: batch}, nil
}
