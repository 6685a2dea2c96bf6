package shard

import "ecosched/internal/resource"

// Split groups the pool's nodes by shard, preserving pool order within each
// shard. Shards may be empty — a partition of few nodes into many shards is
// legal and the search treats an empty shard as an immediately exhausted
// candidate stream.
func (p Partition) Split(pool *resource.Pool) [][]*resource.Node {
	groups := make([][]*resource.Node, p.k)
	for _, n := range pool.Nodes() {
		i := p.Of(n)
		groups[i] = append(groups[i], n)
	}
	return groups
}
