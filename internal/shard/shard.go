// Package shard partitions the grid's nodes into K deterministic shards and
// runs the alternative search as a cross-shard federation: each shard owns
// the live vacant store and slot index of its own node set, candidate
// production fans out across shards, and a combination layer merges per-job
// candidates back into canonical order before window assembly — so results
// stay byte-identical to the unsharded search for every K (the sharding
// differential suite pins this).
//
// The assignment hashes each node's stable label, so it is a pure function of
// the node itself: independent of input order, unchanged when other nodes
// join or leave, and identical across processes and runs. K=1 degenerates to
// today's single-store behavior.
package shard

import (
	"ecosched/internal/resource"
)

// Partition is a deterministic, stable assignment of nodes to K shards.
type Partition struct {
	k int
}

// New returns a partition into k shards; k < 1 is clamped to 1 (the
// unsharded degenerate case).
func New(k int) Partition {
	if k < 1 {
		k = 1
	}
	return Partition{k: k}
}

// K returns the shard count.
func (p Partition) K() int { return p.k }

// FNV-64a over the node label: deterministic across runs and processes
// (unlike Go's runtime map hash), cheap, and well-mixed for short strings.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Of returns the shard owning the node, in [0, K). The assignment depends
// only on the node's label, so it is stable under permutation of the node
// set and under adding or removing other nodes.
func (p Partition) Of(n *resource.Node) int {
	if p.k <= 1 {
		return 0
	}
	var h uint64 = offset64
	for _, b := range []byte(n.Label()) {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(p.k))
}
