package metasched_test

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// staleHarness is a small deterministic service session the stale-plan
// regressions poke at: four equal-performance nodes at distinct prices, one
// single-node job, and a retry policy with a visible backoff — which a stale
// rejection must not engage: it postpones the job, it does not cancel it.
type staleHarness struct {
	grid  *gridsim.Grid
	sched *metasched.Scheduler
	svc   *metasched.Service
	audit *fault.Audit
}

func newStaleHarness(t *testing.T, shards int) *staleHarness {
	t.Helper()
	nodes := []*resource.Node{
		{Name: "n1", Performance: 1, Price: 2},
		{Name: "n2", Performance: 1, Price: 3},
		{Name: "n3", Performance: 1, Price: 4},
		{Name: "n4", Performance: 1, Price: 5},
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := metasched.New(metasched.Config{
		Algorithm:        alloc.ALP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          400,
		Step:             50,
		MaxPostponements: 5,
		Shards:           shards,
		Retry:            &metasched.RetryPolicy{MaxAttempts: 3, BackoffBase: 50, BackoffMax: 100},
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := &staleHarness{grid: grid, sched: sched, svc: svc, audit: fault.NewAudit(sched)}
	j := &job.Job{
		Name:     "j1",
		Priority: 1,
		Request:  job.ResourceRequest{Nodes: 1, Time: 50, MinPerformance: 1, MaxPrice: 10},
	}
	if err := svc.Submit(j); err != nil {
		t.Fatal(err)
	}
	return h
}

// planRound opens a round and plans it, returning the round and the single
// chosen placement the plan must hold.
func (h *staleHarness) planRound(t *testing.T) (*metasched.Round, slot_Placement) {
	t.Helper()
	r, err := h.svc.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evaluate(); err != nil {
		t.Fatal(err)
	}
	p := r.Plan()
	if p == nil || len(p.Choices) != 1 {
		t.Fatalf("expected a 1-choice plan, got %+v", p)
	}
	if p.Stale(h.grid.Epoch()) {
		t.Fatal("plan stale immediately after Evaluate: the snapshot epoch was mis-stamped")
	}
	w := p.Choices[0].Window
	if len(w.Placements) != 1 {
		t.Fatalf("expected a single placement, got %v", w)
	}
	return r, slot_Placement{node: w.Placements[0].Source.Node, span: w.Placements[0].Used}
}

// slot_Placement is the regression suite's view of a chosen placement.
type slot_Placement struct {
	node *resource.Node
	span sim.Interval
}

// applyExpectStale applies the round and asserts the shared rejection
// contract: the window was rejected (not double-booked), the job holds no
// booking, it was postponed exactly once back into the scheduler queue, the
// full fault audit passes, and — with no backoff on a stale rejection — the
// job is in the very next round's batch.
func (h *staleHarness) applyExpectStale(t *testing.T, r *metasched.Round) {
	t.Helper()
	if p := r.Plan(); !p.Stale(h.grid.Epoch()) {
		t.Fatal("plan not flagged stale after the concurrent mutation: the grid epoch did not advance")
	}
	if err := r.Apply(); err != nil {
		t.Fatal(err)
	}
	if r.StaleWindows() != 1 {
		t.Fatalf("StaleWindows = %d, want 1", r.StaleWindows())
	}
	if got := fmt.Sprint(r.StaleJobs()); got != "[j1]" {
		t.Fatalf("StaleJobs = %v, want [j1]", got)
	}
	for _, task := range h.grid.AllTasks() {
		if !task.Local && task.Name == "j1" {
			t.Fatalf("rejected window left a booking behind: %+v", task)
		}
	}
	if h.sched.PlacedCount() != 0 {
		t.Fatalf("PlacedCount = %d after rejection, want 0", h.sched.PlacedCount())
	}
	if h.sched.QueueLength() != 1 {
		t.Fatalf("QueueLength = %d after rejection, want 1 (job postponed, not lost)", h.sched.QueueLength())
	}
	if err := h.audit.Check(); err != nil {
		t.Fatalf("audit after stale apply: %v", err)
	}
	rep, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rep.Postponed, rep.Dropped); got != "[j1] []" {
		t.Fatalf("postponed, dropped = %s, want [j1] []", got)
	}
	var b strings.Builder
	h.sched.CanonicalState(&b)
	if !strings.Contains(b.String(), "queued j1 prio=1 postponed=1 ") || !strings.Contains(b.String(), "notBefore=0 ") {
		t.Fatalf("j1 not queued once-postponed and ungated:\n%s", b.String())
	}
	if err := h.audit.Check(); err != nil {
		t.Fatalf("audit after finish: %v", err)
	}
	next, err := h.svc.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	next.CanonicalState(&b)
	if !strings.Contains(b.String(), "batched j1\n") {
		t.Fatalf("j1 missing from the next round's batch:\n%s", b.String())
	}
	if err := next.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if err := next.Apply(); err != nil {
		t.Fatal(err)
	}
	if _, err := next.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := h.audit.Check(); err != nil {
		t.Fatalf("audit after the retry round: %v", err)
	}
}

// drainExpectPlaced ticks the service until the job lands, auditing after
// every round.
func (h *staleHarness) drainExpectPlaced(t *testing.T) {
	t.Helper()
	for i := 0; i < 8 && h.sched.QueueLength() > 0; i++ {
		if _, err := h.svc.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := h.audit.Check(); err != nil {
			t.Fatalf("audit after recovery tick %d: %v", i, err)
		}
	}
	if h.sched.PlacedCount() != 1 {
		t.Fatalf("job never re-placed after rejection: placed=%d queue=%d dropped=%v",
			h.sched.PlacedCount(), h.sched.QueueLength(), h.sched.DroppedJobs())
	}
}

// TestStalePlanBookedSpan: a concurrent apply (here: an owner-local booking)
// takes the exact span the worker's plan chose between Evaluate and Apply.
// The serial applier must reject the window instead of double-booking.
func TestStalePlanBookedSpan(t *testing.T) {
	h := newStaleHarness(t, 1)
	r, pl := h.planRound(t)
	if err := h.grid.Book(gridsim.Task{Name: "intruder", Node: pl.node.ID, Span: pl.span, Local: true}); err != nil {
		t.Fatal(err)
	}
	h.applyExpectStale(t, r)
	h.drainExpectPlaced(t)
}

// TestStalePlanFailedNode: the chosen node fails between Evaluate and Apply.
// The commit's failed-node guard must reject the window; the job re-places
// on a surviving node.
func TestStalePlanFailedNode(t *testing.T) {
	h := newStaleHarness(t, 1)
	r, pl := h.planRound(t)
	if _, err := h.svc.HandleNodeFailure(pl.node.Label()); err != nil {
		t.Fatal(err)
	}
	h.applyExpectStale(t, r)
	h.drainExpectPlaced(t)
}

// TestStalePlanRevokedInterval: the owner reclaims the chosen span between
// Evaluate and Apply (the revocation books reclaim tasks over it), so the
// commit must find the interval occupied and reject.
func TestStalePlanRevokedInterval(t *testing.T) {
	h := newStaleHarness(t, 1)
	r, pl := h.planRound(t)
	if _, err := h.svc.HandleRevocation(pl.node.Label(), pl.span); err != nil {
		t.Fatal(err)
	}
	h.applyExpectStale(t, r)
	h.drainExpectPlaced(t)
}

// TestStalePlanShardLocalDrop: under a two-shard federation the invalidation
// lands in exactly one shard — the intruder books over the chosen span on
// its node — and the apply must reject shard-locally: the other shard's
// store stays coherent (the audit's per-shard vacancy invariant checks
// both), the job is postponed and re-places.
func TestStalePlanShardLocalDrop(t *testing.T) {
	h := newStaleHarness(t, 2)
	r, pl := h.planRound(t)
	if err := h.grid.Book(gridsim.Task{Name: "intruder", Node: pl.node.ID, Span: pl.span, Local: true}); err != nil {
		t.Fatal(err)
	}
	h.applyExpectStale(t, r)
	h.drainExpectPlaced(t)
}
