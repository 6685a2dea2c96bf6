package gridsim

import (
	"fmt"

	"ecosched/internal/metrics"
	"ecosched/internal/slot"
)

// Metrics holds the pre-resolved instruments of the grid environment:
// owner-local load injected, commit/cancellation churn, and failures. Attach
// with Grid.SetMetrics. A holder built from a nil registry holds nil
// instruments and costs nothing; observation never changes any booking
// decision.
type Metrics struct {
	// LocalTasksBooked counts owner-local tasks injected by Populate;
	// BookCollisions counts arrivals skipped because the sampled interval
	// was already occupied.
	LocalTasksBooked *metrics.Counter
	BookCollisions   *metrics.Counter
	// Commits counts committed VO windows, Reservations the individual
	// placements booked under them.
	Commits      *metrics.Counter
	Reservations *metrics.Counter
	// FailuresInjected counts FailNode calls that actually downed a node;
	// ReservationsCancelled the VO reservations released by failures and
	// job cancellations.
	FailuresInjected      *metrics.Counter
	ReservationsCancelled *metrics.Counter
	// NodeRecoveries counts RecoverNode calls that brought a failed node
	// back; Revocations counts RevokeInterval calls on live nodes and
	// RevokedReservations the VO reservations they cancelled.
	NodeRecoveries      *metrics.Counter
	Revocations         *metrics.Counter
	RevokedReservations *metrics.Counter
	// BookingsMoved counts the bookings copied down when a node's booking
	// list compacts its dead prefix (bookings.go): the clock advance's
	// work beyond the expired bookings themselves.
	BookingsMoved *metrics.Counter
	// The gridsim/store/ family instruments the live vacant-slot store
	// (store.go). StoreRebuilds counts full builds — exactly one on the
	// steady-state path (the lazy initial build); StoreSnapshots counts
	// publications served from it. The churn counters split the
	// incremental maintenance by cause: punches (bookings subtracted),
	// restores (cancellations merged back), node drops/restores (failure
	// and recovery), trims (clock advances) and extends (horizon growth).
	// StoreIncoherentDrops counts self-healing resets after an
	// exact-identity miss — zero on every production path, pinned by the
	// equivalence suites. StoreSlots tracks the store size after each
	// operation, and StoreIndex aggregates the underlying slot.Index
	// maintenance under gridsim/store/index/.
	StoreRebuilds        *metrics.Counter
	StoreSnapshots       *metrics.Counter
	StorePunches         *metrics.Counter
	StoreRestores        *metrics.Counter
	StoreNodeDrops       *metrics.Counter
	StoreNodeRestores    *metrics.Counter
	StoreTrims           *metrics.Counter
	StoreExtends         *metrics.Counter
	StoreIncoherentDrops *metrics.Counter
	StoreSlots           *metrics.Gauge
	StoreIndex           *slot.IndexMetrics

	// reg is retained so sharded grids can lazily resolve the per-shard
	// counters below without knowing the shard count up front. Per-shard
	// instruments (gridsim/store/shard<i>/rebuilds_total and
	// .../incoherent_drops_total) are emitted only when the grid is
	// actually sharded, so unsharded metric snapshots are unchanged.
	reg *metrics.Registry
}

// disabledMetrics is the holder of a grid without instruments.
var disabledMetrics = Metrics{StoreIndex: slot.NewIndexMetrics(nil, "")}

// NewMetrics resolves the grid instruments under the "gridsim/" prefix. A
// nil registry returns the disabled holder.
func NewMetrics(r *metrics.Registry) *Metrics {
	if r == nil {
		return &disabledMetrics
	}
	return &Metrics{
		LocalTasksBooked:      r.Counter("gridsim/local_tasks_booked_total"),
		BookCollisions:        r.Counter("gridsim/book_collisions_total"),
		Commits:               r.Counter("gridsim/commits_total"),
		Reservations:          r.Counter("gridsim/reservations_total"),
		FailuresInjected:      r.Counter("gridsim/failures_injected_total"),
		ReservationsCancelled: r.Counter("gridsim/reservations_cancelled_total"),
		NodeRecoveries:        r.Counter("gridsim/fault/node_recoveries_total"),
		Revocations:           r.Counter("gridsim/fault/revocations_total"),
		RevokedReservations:   r.Counter("gridsim/fault/revoked_reservations_total"),
		BookingsMoved:         r.Counter("gridsim/bookings_moved_total"),
		StoreRebuilds:         r.Counter("gridsim/store/rebuilds_total"),
		StoreSnapshots:        r.Counter("gridsim/store/snapshots_total"),
		StorePunches:          r.Counter("gridsim/store/punches_total"),
		StoreRestores:         r.Counter("gridsim/store/restores_total"),
		StoreNodeDrops:        r.Counter("gridsim/store/node_drops_total"),
		StoreNodeRestores:     r.Counter("gridsim/store/node_restores_total"),
		StoreTrims:            r.Counter("gridsim/store/trims_total"),
		StoreExtends:          r.Counter("gridsim/store/extends_total"),
		StoreIncoherentDrops:  r.Counter("gridsim/store/incoherent_drops_total"),
		StoreSlots:            r.Gauge("gridsim/store/slots"),
		StoreIndex:            slot.NewIndexMetrics(r, "gridsim/store/index/"),
		reg:                   r,
	}
}

// SetMetrics attaches (or, with nil, detaches) the grid's instruments. Any
// already-built live stores are re-targeted at the new registry's index
// instruments.
func (g *Grid) SetMetrics(m *Metrics) {
	if m == nil {
		m = &disabledMetrics
	}
	g.metrics = m
	for _, st := range g.stores {
		if st != nil {
			st.ix.SetMetrics(m.StoreIndex)
		}
	}
}

func (m *Metrics) committed(placements int) {
	m.Commits.Inc()
	m.Reservations.Add(int64(placements))
}

func (m *Metrics) failed(cancelled int) {
	m.FailuresInjected.Inc()
	m.ReservationsCancelled.Add(int64(cancelled))
}

func (m *Metrics) revoked(cancelled int) {
	m.Revocations.Inc()
	m.RevokedReservations.Add(int64(cancelled))
	m.ReservationsCancelled.Add(int64(cancelled))
}

// storeChanged counts one store operation by its counter c and records the
// store size after it.
func (m *Metrics) storeChanged(c *metrics.Counter, slots int) {
	c.Inc()
	m.StoreSlots.Set(int64(slots))
}

// storeShard attributes a rebuild or self-healing drop (event "rebuilds" or
// "incoherent_drops") to one shard of a sharded grid. The counter resolves
// lazily (Registry.Counter is resolve-or-create) so the shard count never
// has to reach NewMetrics, and it only exists once a sharded grid emits it —
// unsharded runs keep their historical metric snapshots byte for byte.
func (m *Metrics) storeShard(i int, event string) {
	if m.reg == nil {
		return
	}
	m.reg.Counter(fmt.Sprintf("gridsim/store/shard%d/%s_total", i, event)).Inc()
}
