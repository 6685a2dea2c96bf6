// Package resource models the computational nodes of the virtual
// organization: their relative performance rates, their per-time-unit usage
// prices, and groupings into administrative domains (clusters). The paper's
// environment is heterogeneous and non-dedicated — nodes differ in speed and
// price, and owners run local jobs on them alongside the VO's global flow.
package resource

import (
	"fmt"
	"math"
	"sort"

	"ecosched/internal/sim"
)

// EtalonPerformance is the reference performance rate. Job wall times in a
// resource request are stated for a node of this rate, so a task declared to
// take t ticks runs in t / P ticks on a node with performance P (Section 6 of
// the paper: "the job execution time t/P").
const EtalonPerformance = 1.0

// NodeID identifies a node within a Pool.
type NodeID int

// Node is a single computational resource (a processor/core in the paper's
// terms). A slot is always bound to exactly one node.
type Node struct {
	// ID is the node's index within its pool.
	ID NodeID
	// Name is a human-readable label such as "cpu4" used in charts.
	Name string
	// Performance is the node's relative speed; EtalonPerformance = 1.
	// A task with etalon wall time t completes in ceil(t/Performance) ticks.
	Performance float64
	// Price is the owner's charge per time unit of slot usage.
	Price sim.Money
	// Domain is the administrative domain (cluster) the node belongs to.
	Domain string
	// Attrs are the node's non-performance characteristics (RAM, disk,
	// OS, capability tags) matched against request requirements.
	Attrs Attributes
}

// Validate reports an error when the node's attributes are unusable for
// scheduling (non-positive performance, negative or non-finite price).
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("resource: nil node")
	}
	if n.Performance <= 0 || math.IsNaN(n.Performance) || math.IsInf(n.Performance, 0) {
		return fmt.Errorf("resource: node %s has invalid performance %v", n.Label(), n.Performance)
	}
	if n.Price < 0 || !n.Price.IsFinite() {
		return fmt.Errorf("resource: node %s has invalid price %v", n.Label(), n.Price)
	}
	if err := n.Attrs.Validate(); err != nil {
		return fmt.Errorf("resource: node %s: %w", n.Label(), err)
	}
	return nil
}

// Satisfies reports whether the node meets the attribute requirements.
func (n *Node) Satisfies(req Requirements) bool {
	return req.SatisfiedBy(n.Attrs)
}

// Label returns the node's display name, falling back to its numeric ID.
func (n *Node) Label() string {
	if n.Name != "" {
		return n.Name
	}
	return fmt.Sprintf("node%d", n.ID)
}

// Runtime returns the execution time on this node of a task whose wall time
// is stated for the etalon performance. The result is rounded up to whole
// ticks and is never less than one tick for a positive workload.
func (n *Node) Runtime(etalonTime sim.Duration) sim.Duration {
	if etalonTime <= 0 {
		return 0
	}
	d := sim.Duration(math.Ceil(float64(etalonTime) / n.Performance))
	if d < 1 {
		d = 1
	}
	return d
}

// String renders the node with its key economic attributes.
func (n *Node) String() string {
	return fmt.Sprintf("%s(P=%.2f, C=%v)", n.Label(), n.Performance, n.Price)
}

// Pool is an immutable collection of nodes indexed by NodeID. All slot lists
// reference nodes by pointer into a pool, so node identity comparisons are
// pointer comparisons.
type Pool struct {
	nodes []*Node
	// byLabel maps each label to its node's index in nodes.
	byLabel map[string]int
}

// NewPool builds a pool from the given nodes, assigning sequential IDs when
// nodes carry the zero ID. It validates every node and rejects two nodes
// with one label, since fault plans, journals and checkpoints address nodes
// by label through ByName.
func NewPool(nodes []*Node) (*Pool, error) {
	p := &Pool{nodes: make([]*Node, 0, len(nodes)), byLabel: make(map[string]int, len(nodes))}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("resource: nil node at index %d", i)
		}
		if err := n.Validate(); err != nil {
			return nil, err
		}
		n.ID = NodeID(i)
		label := n.Label()
		if first, dup := p.byLabel[label]; dup {
			return nil, fmt.Errorf("resource: nodes %d and %d share the label %q", first, i, label)
		}
		p.byLabel[label] = i
		p.nodes = append(p.nodes, n)
	}
	return p, nil
}

// MustNewPool is NewPool that panics on error; intended for tests and
// hand-built example environments.
func MustNewPool(nodes []*Node) *Pool {
	p, err := NewPool(nodes)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the number of nodes in the pool.
func (p *Pool) Size() int { return len(p.nodes) }

// Node returns the node with the given ID, or nil when out of range.
func (p *Pool) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(p.nodes) {
		return nil
	}
	return p.nodes[id]
}

// Nodes returns the pool's nodes in ID order. The returned slice is shared;
// callers must not mutate it.
func (p *Pool) Nodes() []*Node { return p.nodes }

// ByName returns the node with the given display name, or nil.
func (p *Pool) ByName(name string) *Node {
	i, ok := p.byLabel[name]
	if !ok {
		return nil
	}
	return p.nodes[i]
}

// Domains returns the distinct domain names present in the pool, sorted.
func (p *Pool) Domains() []string {
	seen := map[string]bool{}
	for _, n := range p.nodes {
		seen[n.Domain] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
