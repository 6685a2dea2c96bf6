package gridsim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// This file implements the grid's live vacant-slot store: a persistent
// slot.Index over [Now, horizon) that every state transition maintains
// incrementally — each hook moves the slots of the one or two buckets it
// lands in — so publishing vacancy (ShardViews) is a copy-on-write clone that
// copies bucket pointers, instead of an O(nodes·tasks) rebuild.
//
// Sharding. Under SetSharding the store is split by node into K independent
// stores, one per shard: stores[i] covers exactly the nodes the assignment
// routes to shard i. Every mutation hook touches only the affected node's
// shard, publication hands out per-shard views (ShardViews), and incoherence
// self-healing is shard-local — one shard dropping never rebuilds the others.
// The unsharded grid is the K=1 degenerate case with a single store.
//
// Ownership and coherence. Each store is a derived cache of (booked, failed,
// now) restricted to its shard's nodes: it holds, per live node, exactly the
// maximal complement intervals of the node's bookings clipped to
// [now, horizon). Every mutation hook below derives the affected slots' exact
// identities from the booking neighbors — O(log n) binary searches, never a
// rescan — and applies them to the index. Because the canonical slot order
// (start, node, end) is a strict total order over well-formed vacant lists,
// incremental maintenance lands every slot at exactly the rank the
// full-rebuild oracle's stable sort would, and each store stays
// byte-identical to the oracle filtered to its nodes — the equivalence the
// chaos soak, the model checker, and fault.Audit's per-transition
// VacantStoreCoherent check all pin.
//
// Lifecycle. Stores build lazily on the first publication (one NewIndex per
// shard on the steady-state path, counted in gridsim/store/rebuilds_total and,
// when sharded, gridsim/store/shard<i>/rebuilds_total), extend when the
// horizon slides forward — one walk over the shard's nodes and one
// slot.Index.Extend per shard (extendShard) — trim when the clock advances
// (trimShard), and self-heal by dropping the affected shard if an
// exact-identity operation ever misses (counted in incoherent_drops_total;
// the equivalence suites assert it stays zero).
//
// Concurrency. The per-round maintenance — the clock advance's trim and the
// horizon extension — runs once per shard, the shards concurrently on up to
// GOMAXPROCS goroutines (eachShard). A shard's step writes its own store only
// and reads the bookings and failure marks, which no step writes; the steps
// join before anything order-sensitive, and their counters, gauges and
// self-healing drops are emitted after the join in shard order
// (afterShards), so every metric reads as a serial loop over the shards
// leaves it. Every other hook — a booking, a cancellation, a failure — and
// publication run on the caller's goroutine.
type vacantStore struct {
	ix *slot.Index
	// horizon is the exclusive right edge the store currently covers.
	horizon sim.Time
	// grows and run are extendShard's buffers, reused across extensions.
	grows []slot.Grow
	run   []slot.Slot
	// step is what the last eachShard step did to the store, read after the
	// join.
	step stepResult
}

// stepResult is the outcome of one shard's maintenance step.
type stepResult uint8

const (
	// stepSkipped: the step did not apply to the store.
	stepSkipped stepResult = iota
	// stepDone: the step applied and left the bucket tiling as it was.
	stepDone
	// stepReshaped: the step applied and re-tiled buckets, which the index
	// recorded in its Buckets gauge.
	stepReshaped
	// stepFailed: the step found the store incoherent; it must drop.
	stepFailed
)

// shardStep is one shard's part of a maintenance step: it maintains
// g.stores[i], which is not nil, toward the time t.
type shardStep func(g *Grid, i int, t sim.Time) stepResult

// SetSharding partitions the live store by node into k shards using the
// given assignment (internal/shard provides the canonical one; gridsim only
// requires determinism and range [0, k)). k <= 1 with any assignment returns
// to the unsharded single store. Existing stores are released so the next
// publication rebuilds under the new partition; results are byte-identical
// for every k (the sharding differential pins this). The assignment is read
// once here: the grid keeps each node's shard and each shard's nodes.
func (g *Grid) SetSharding(k int, of func(*resource.Node) int) error {
	k = max(k, 1)
	if k > 1 && of == nil {
		return fmt.Errorf("gridsim: sharding into %d shards needs a node assignment", k)
	}
	nodeShard := make([]int, g.pool.Size())
	shardNodes := make([][]*resource.Node, k)
	for _, n := range g.pool.Nodes() {
		i := 0
		if k > 1 {
			if i = of(n); i < 0 || i >= k {
				return fmt.Errorf("gridsim: node %s assigned to shard %d, want [0,%d)", n.Label(), i, k)
			}
		}
		nodeShard[n.ID] = i
		shardNodes[i] = append(shardNodes[i], n)
	}
	g.nodeShard, g.shardNodes, g.stores = nodeShard, shardNodes, nil
	return nil
}

// Shards returns the configured shard count (1 when unsharded).
func (g *Grid) Shards() int { return len(g.shardNodes) }

// shardIdx returns the shard owning the node.
func (g *Grid) shardIdx(n *resource.Node) int { return g.nodeShard[n.ID] }

// storeFor returns the node's shard store (nil when inactive) and its shard
// index, for the shard-local self-healing path.
func (g *Grid) storeFor(n *resource.Node) (*vacantStore, int) {
	if len(g.stores) == 0 {
		return nil, 0
	}
	i := g.shardIdx(n)
	return g.stores[i], i
}

// eachShard runs step on every shard store, the shards spread over
// min(K, GOMAXPROCS) goroutines — the caller's and the ones it starts and
// joins — and records each store's outcome in its step field; the caller
// emits them after the join (afterShards). With one worker — K = 1, or
// GOMAXPROCS = 1 — a plain loop steps the shards in order on the caller's
// goroutine: step is a plain function, not a closure, and the loop needs no
// claim counter, so that path starts no goroutine and allocates nothing.
func (g *Grid) eachShard(step shardStep, t sim.Time) {
	workers := min(len(g.stores), runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i, st := range g.stores {
			if st != nil {
				st.step = step(g, i, t)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			g.stepShards(step, t, &next)
		}()
	}
	g.stepShards(step, t, &next)
	wg.Wait()
}

// stepShards steps the shard stores whose indexes it claims from next, in
// claim order, until every index is claimed.
func (g *Grid) stepShards(step shardStep, t sim.Time, next *atomic.Int64) {
	for i := int(next.Add(1) - 1); i < len(g.stores); i = int(next.Add(1) - 1) {
		if st := g.stores[i]; st != nil {
			st.step = step(g, i, t)
		}
	}
}

// afterShards emits, in shard order, what the last eachShard step did: a
// store whose step failed drops (dropShardStore), and every other store the
// step applied to counts once in c, with the store size after it. The steps'
// own writes to the shared gridsim/store/index/buckets gauge raced, so it is
// set last to what a serial loop leaves there: the bucket count of the last
// shard whose step re-tiled.
func (g *Grid) afterShards(c *metrics.Counter) {
	reshaped := -1
	for i, st := range g.stores {
		if st == nil {
			continue
		}
		switch st.step {
		case stepFailed:
			g.dropShardStore(i)
		case stepDone, stepReshaped:
			g.metrics.storeChanged(c, g.storeSlotsTotal())
			if st.step == stepReshaped {
				reshaped = i
			}
		}
	}
	if reshaped >= 0 {
		g.metrics.StoreIndex.Buckets.Set(int64(g.stores[reshaped].ix.Buckets()))
	}
}

// storeSlotsTotal is the live slot count across all shard stores — the value
// the gridsim/store/slots gauge tracks (identical to the single store's size
// when unsharded).
func (g *Grid) storeSlotsTotal() int {
	total := 0
	for _, st := range g.stores {
		if st != nil {
			total += st.ix.Len()
		}
	}
	return total
}

// appendFragments appends to dst the node's maximal vacant intervals over
// [from, to) — the complement of bookings, which must hold every one of the
// node's bookings that ends after from — in start order. The rebuild oracle
// and the store's node-restore and horizon-extend paths all derive fragments
// through this one walk, so they cannot disagree on boundary conventions.
func appendFragments(dst []slot.Slot, n *resource.Node, bookings []Task, from, to sim.Time) []slot.Slot {
	cursor := from
	for _, t := range bookings {
		if t.Span.End <= cursor {
			continue
		}
		if t.Span.Start >= to {
			break
		}
		if t.Span.Start > cursor {
			dst = append(dst, slot.New(n, cursor, t.Span.Start.Min(to)))
		}
		if t.Span.End > cursor {
			cursor = t.Span.End
		}
	}
	if cursor < to {
		dst = append(dst, slot.New(n, cursor, to))
	}
	return dst
}

// ensureStore makes every shard's live store cover exactly [now, horizon):
// extending the ones the horizon slid forward past, building missing ones
// (first use, or a shard that self-healed), and rebuilding when the caller
// asked for a shorter horizon (not a steady-state shape — the metascheduler's
// horizon only ever slides forward).
func (g *Grid) ensureStore(horizon sim.Time) {
	if g.stores == nil {
		g.stores = make([]*vacantStore, g.Shards())
	}
	extend := false
	for i, st := range g.stores {
		switch {
		case st == nil || st.horizon == horizon:
		case horizon > st.horizon:
			extend = true
		default:
			g.stores[i] = nil
		}
	}
	if extend {
		g.eachShard(extendShard, horizon)
		g.afterShards(g.metrics.StoreExtends)
	}
	for i := range g.stores {
		if g.stores[i] == nil {
			g.buildShardStore(i, horizon)
		}
	}
}

// buildShardStore constructs one shard's store from scratch at the given
// horizon — the only place the live path pays a full build.
func (g *Grid) buildShardStore(i int, horizon sim.Time) {
	ix := slot.NewIndex(g.shardOracle(i, horizon), g.metrics.StoreIndex)
	g.stores[i] = &vacantStore{ix: ix, horizon: horizon}
	g.metrics.storeChanged(g.metrics.StoreRebuilds, g.storeSlotsTotal())
	if g.Shards() > 1 {
		g.metrics.storeShard(i, "rebuilds")
	}
}

// dropShardStore releases one incoherent shard store so the next publication
// rebuilds it — shard-locally: the other shards' stores (and their
// rebuilds_total counters) are untouched. This is the self-healing path
// behind the exact-identity operations: it can only trigger after the store
// diverged from the bookings (e.g. a corruption hook like ForceBook bypassed
// the mutation hooks), and the equivalence suites assert the counter stays
// zero on every production path.
func (g *Grid) dropShardStore(i int) {
	g.stores[i] = nil
	g.metrics.StoreIncoherentDrops.Inc()
	if g.Shards() > 1 {
		g.metrics.storeShard(i, "incoherent_drops")
	}
}

// storeBook subtracts a just-booked task's span from the node's shard store.
// list is the node's booking list with the task already inserted at position
// i; the containing maximal vacant interval is bounded by the neighbors
// (clipped to [now, horizon)), which identifies the store slot to punch
// exactly.
func (g *Grid) storeBook(node *resource.Node, list []Task, i int) {
	st, si := g.storeFor(node)
	if st == nil || g.NodeFailed(node.ID) {
		return
	}
	t := list[i]
	clip := t.Span.Intersect(sim.Interval{Start: g.now, End: st.horizon})
	if clip.Empty() {
		return
	}
	lo, hi := g.now, st.horizon
	if i > 0 && list[i-1].Span.End > lo {
		lo = list[i-1].Span.End
	}
	if i+1 < len(list) && list[i+1].Span.Start < hi {
		hi = list[i+1].Span.Start
	}
	target := slot.Slot{Node: node, Price: node.Price, Span: sim.Interval{Start: lo, End: hi}}
	if err := st.ix.SubtractInterval(target, clip); err != nil {
		g.dropShardStore(si)
		return
	}
	g.metrics.storeChanged(g.metrics.StorePunches, g.storeSlotsTotal())
}

// storeUnbook restores a just-removed booking's span to the node's shard
// store, merging with the (exactly known) adjacent fragments so the result is
// again the maximal vacant interval between the surviving neighbors. Callers
// must remove bookings one at a time — remove a task from g.booked, then call
// storeUnbook, then the next — so the neighbor derivation always runs against
// a booking list the store is coherent with.
func (g *Grid) storeUnbook(node *resource.Node, span sim.Interval) {
	st, si := g.storeFor(node)
	if st == nil || g.NodeFailed(node.ID) {
		return
	}
	clip := span.Intersect(sim.Interval{Start: g.now, End: st.horizon})
	if clip.Empty() {
		return
	}
	list := g.bookings(node.ID)
	i := sort.Search(len(list), func(k int) bool { return list[k].Span.Start >= span.Start })
	lo, hi := g.now, st.horizon
	if i > 0 && list[i-1].Span.End > lo {
		lo = list[i-1].Span.End
	}
	if i < len(list) && list[i].Span.Start < hi {
		hi = list[i].Span.Start
	}
	left := sim.Interval{Start: lo, End: clip.Start}
	right := sim.Interval{Start: clip.End, End: hi}
	if !left.Empty() && !st.ix.RemoveExact(slot.Slot{Node: node, Price: node.Price, Span: left}) {
		g.dropShardStore(si)
		return
	}
	if !right.Empty() && !st.ix.RemoveExact(slot.Slot{Node: node, Price: node.Price, Span: right}) {
		g.dropShardStore(si)
		return
	}
	st.ix.Insert(slot.Slot{Node: node, Price: node.Price, Span: sim.Interval{Start: lo, End: hi}})
	g.metrics.storeChanged(g.metrics.StoreRestores, g.storeSlotsTotal())
}

// storeFail drops every store slot of a node that just failed from its shard.
// The failure mark must already be set, so the cancellation removals that
// follow skip their storeUnbook restores.
func (g *Grid) storeFail(node *resource.Node) {
	st, _ := g.storeFor(node)
	if st == nil {
		return
	}
	st.ix.DropNode(node)
	g.metrics.storeChanged(g.metrics.StoreNodeDrops, g.storeSlotsTotal())
}

// storeRecover re-derives a just-recovered node's vacancy from its bookings
// and inserts the fragments into its shard. Fragments are maximal by
// construction, and the node contributed no slots while failed, so no merging
// is needed.
func (g *Grid) storeRecover(node *resource.Node) {
	st, _ := g.storeFor(node)
	if st == nil {
		return
	}
	for _, f := range appendFragments(nil, node, g.bookings(node.ID), g.now, st.horizon) {
		st.ix.Insert(f)
	}
	g.metrics.storeChanged(g.metrics.StoreNodeRestores, g.storeSlotsTotal())
}

// storeAdvance trims every shard store to the new clock, one trimShard per
// shard (eachShard). A clock at or past a store's horizon leaves nothing to
// keep; that store is released and rebuilds on the next publication (the
// metascheduler's Step < Horizon never hits this).
func (g *Grid) storeAdvance(to sim.Time) {
	for i, st := range g.stores {
		if st != nil && to >= st.horizon {
			g.stores[i] = nil
		}
	}
	g.eachShard(trimShard, to)
	g.afterShards(g.metrics.StoreTrims)
}

// trimShard trims shard i's store to the clock t.
func trimShard(g *Grid, i int, t sim.Time) stepResult {
	if dropped, trimmed := g.stores[i].ix.TrimBefore(t); dropped+trimmed == 0 {
		return stepDone
	}
	return stepReshaped
}

// extendShard grows shard i's store, when its horizon lies before the new
// one, to cover it with one slot.Index.Extend. A walk over the shard's nodes
// derives each live node's share from its bookings: the fragments over
// [old horizon, horizon), whose walk starts at the first booking past the old
// horizon, found by walking back from the tail. A fragment opening exactly at
// the old horizon continues a vacancy run clipped there. If the node was
// vacant right up to the old horizon, its trailing store slot grows to the
// fragment's end — the merged maximal interval the oracle emits over the
// wider window. If a booking ended exactly at the old horizon, there is no
// trailing slot and the fragment stands alone. Every other fragment starts at
// or after the old horizon, past every held slot, so the shard's fragments
// append as one run. The grow and run buffers live on the store and are
// reused from round to round.
func extendShard(g *Grid, i int, horizon sim.Time) stepResult {
	st := g.stores[i]
	if st.horizon >= horizon {
		return stepSkipped
	}
	old := st.horizon
	st.grows, st.run = st.grows[:0], st.run[:0]
	for _, n := range g.shardNodes[i] {
		if g.NodeFailed(n.ID) {
			continue
		}
		// The bookings this walk back passes are the ones the fragment
		// walk below reads anyway.
		list := g.bookings(n.ID)
		k := len(list)
		for k > 0 && list[k-1].Span.Start >= old {
			k--
		}
		from := len(st.run)
		st.run = appendFragments(st.run, n, list[max(k-1, 0):], old, horizon)
		if len(st.run) == from || st.run[from].Start() != old {
			continue
		}
		if k > 0 && list[k-1].Span.End >= old {
			continue // a booking ends exactly at the old horizon
		}
		trailStart := g.now
		if k > 0 && list[k-1].Span.End > trailStart {
			trailStart = list[k-1].Span.End
		}
		st.grows = append(st.grows, slot.Grow{Slot: slot.New(n, trailStart, old), End: st.run[from].End()})
		st.run = append(st.run[:from], st.run[from+1:]...)
	}
	st.horizon = horizon
	switch err := st.ix.Extend(st.grows, st.run); {
	case err != nil:
		return stepFailed
	case len(st.run) == 0:
		return stepDone
	}
	return stepReshaped
}

// RebuildVacantSlots is the pinned oracle: it derives the full vacant list
// from the bookings — for each live node, the complement intervals over
// [Now, horizon), sorted into canonical order. No publication calls it; the
// live store must match it byte for byte at all times, which the equivalence
// suites and fault.Audit (VacantStoreCoherent, per shard) enforce.
func (g *Grid) RebuildVacantSlots(horizon sim.Time) (*slot.List, error) {
	if horizon <= g.now {
		return nil, fmt.Errorf("gridsim: horizon %v not after current time %v", horizon, g.now)
	}
	return g.shardOracle(-1, horizon), nil
}

// shardOracle rebuilds one shard's vacant list from the bookings — the
// rebuild oracle restricted to the shard's live nodes, or to every live node
// when si is negative.
func (g *Grid) shardOracle(si int, horizon sim.Time) *slot.List {
	nodes := g.pool.Nodes()
	if si >= 0 {
		nodes = g.shardNodes[si]
	}
	var slots []slot.Slot
	for _, n := range nodes {
		if g.NodeFailed(n.ID) {
			continue
		}
		slots = appendFragments(slots, n, g.bookings(n.ID), g.now, horizon)
	}
	return slot.NewList(slots)
}

// VacantView publishes an unsharded grid's vacancy as ShardViews' single
// view and an O(n) list copy of it; the caller owns both. A sharded grid
// returns the merged list and a nil index — the merged list is not any one
// shard's. The scheduler publishes through ShardViews for every K; this form
// remains for callers that hold one list.
func (g *Grid) VacantView(horizon sim.Time) (*slot.List, *slot.Index, error) {
	if g.Shards() > 1 {
		l, err := g.VacantSlots(horizon)
		return l, nil, err
	}
	views, err := g.ShardViews(horizon)
	if err != nil {
		return nil, nil, err
	}
	return views[0].List(), views[0], nil
}

// ShardViews publishes the vacancy over [Now, horizon) as one search-ready
// index per shard (one in all for an unsharded grid), each a copy-on-write
// clone of that shard's live store — no walk, no sort, no slot copied: view
// and store share every bucket until one of them writes to it, and that write
// copies the one bucket. The caller owns the views outright (the search
// subtracts found windows from them without ever touching the store) and,
// once done, hands them back through ReleaseViews; merging them in canonical
// order reproduces VacantSlots byte for byte.
func (g *Grid) ShardViews(horizon sim.Time) ([]*slot.Index, error) {
	if horizon <= g.now {
		return nil, fmt.Errorf("gridsim: horizon %v not after current time %v", horizon, g.now)
	}
	g.ensureStore(horizon)
	views := make([]*slot.Index, len(g.stores))
	for i, st := range g.stores {
		views[i] = st.ix.Clone(nil)
	}
	g.metrics.StoreSnapshots.Inc()
	return views, nil
}

// ReleaseViews hands a publication's views back to the live stores once the
// caller is done with them (slot.Index.Release): the buckets each store
// shares with its own view alone become the store's again, so the next
// round's writes to them copy nothing. views[i] goes back to stores[i]; a
// view whose store has since been rebuilt or cloned again is only emptied,
// and a view with no store left to return to is dropped as it is. The views
// are unusable afterwards.
func (g *Grid) ReleaseViews(views []*slot.Index) {
	for i, v := range views {
		if i < len(g.stores) && g.stores[i] != nil {
			g.stores[i].ix.Release(v)
		}
	}
}

// mergedStoreList copies the shard stores out into the global canonical list
// (fresh storage; later store mutations leave it untouched).
func (g *Grid) mergedStoreList() *slot.List {
	if len(g.stores) == 1 {
		return g.stores[0].ix.List() // already a fresh copy
	}
	lists := make([]*slot.List, len(g.stores))
	for i, st := range g.stores {
		lists[i] = st.ix.List()
	}
	return slot.MergeLists(lists...)
}

// VacantStoreCoherent verifies every live shard store against the rebuild
// oracle restricted to its nodes, plus the index's bucket invariants; nil
// when the store is inactive (a shard mid-self-heal is skipped — it holds no
// state to diverge). fault.Audit runs it after every event and iteration,
// which is what proves the incremental maintenance byte-identical to the
// rebuild across the chaos soak and the model checker's bounded state space —
// per shard when sharded (audit invariant 7 covers shard-boundary
// interleavings through this).
func (g *Grid) VacantStoreCoherent() error {
	for si, st := range g.stores {
		if st == nil {
			continue
		}
		label := ""
		if g.Shards() > 1 {
			label = fmt.Sprintf(" shard %d", si)
		}
		if err := st.ix.CheckInvariants(); err != nil {
			return fmt.Errorf("gridsim: live store%s index: %w", label, err)
		}
		if st.horizon <= g.now {
			return fmt.Errorf("gridsim: live store%s horizon stale: horizon %v not after current time %v", label, st.horizon, g.now)
		}
		oracle := g.shardOracle(si, st.horizon)
		if st.ix.Len() != oracle.Len() {
			return fmt.Errorf("gridsim: live store%s has %d slots, oracle rebuild has %d (horizon %v)",
				label, st.ix.Len(), oracle.Len(), st.horizon)
		}
		var err error
		st.ix.Each(func(i int, live slot.Slot) bool {
			if live != oracle.At(i) {
				err = fmt.Errorf("gridsim: live store%s diverged at rank %d: have %v, oracle says %v (horizon %v)",
					label, i, live, oracle.At(i), st.horizon)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
