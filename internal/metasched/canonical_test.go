package metasched

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// fprintfScheduler and fprintfRound are the reference the CanonicalState
// methods must match byte for byte: each line written by fmt.Fprintf, as the
// serialization was first defined. fprintfRequest spells out the request's
// String as it was, which the request's Append now implements.
func fprintfScheduler(s *Scheduler) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sched iter=%d seededTo=%d\n", s.iter, int64(s.seededTo))
	for _, q := range s.queue {
		fmt.Fprintf(&b, "queued %s prio=%d postponed=%d submit=%d notBefore=%d req{%v}\n",
			q.job.Name, q.job.Priority, q.postponed, int64(q.submitTick), int64(q.notBefore), fprintfRequest(q.job.Request))
	}
	for _, name := range sortedKeys(s.placed) {
		fmt.Fprintf(&b, "placed %s req{%v}\n", name, fprintfRequest(s.placed[name].Request))
	}
	for _, name := range sortedKeys(s.firstSubmit) {
		fmt.Fprintf(&b, "submitted %s at=%d\n", name, int64(s.firstSubmit[name]))
	}
	for _, name := range sortedKeys(s.retry) {
		st := s.retry[name]
		fmt.Fprintf(&b, "retry %s attempts=%d relaxations=%d\n", name, st.attempts, st.relaxations)
	}
	for _, name := range sortedKeys(s.droppedJobs) {
		fmt.Fprintf(&b, "dropped %s reason=%s\n", name, s.droppedJobs[name])
	}
	st := s.retryStats
	fmt.Fprintf(&b, "retrystats cancelled=%d requeued=%d relaxed=%d exhausted=%d deadline=%d\n",
		st.Cancelled, st.Requeued, st.Relaxations, st.DroppedExhausted, st.DroppedDeadline)
	if la := s.cfg.LocalArrivals; la != nil {
		fmt.Fprintf(&b, "arrivals rng=%d\n", la.RNG.State())
	}
	return b.String()
}

func fprintfRequest(r job.ResourceRequest) string {
	return fmt.Sprintf("N=%d t=%v P>=%.2f C<=%v rho=%.2f", r.Nodes, r.Time, r.MinPerformance, r.MaxPrice, r.Rho())
}

func fprintfRound(r *Round) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iteration open=%d planned=%t applied=%t alts=%d planT=%v planC=%v stale=%d\n",
		r.rep.Iteration, r.planned, r.applied, r.rep.Alternatives, r.rep.PlanTime, r.rep.PlanCost,
		len(r.staleNames))
	for _, q := range r.selected {
		fmt.Fprintf(&b, "batched %s\n", q.job.Name)
	}
	if r.plan != nil {
		for _, ch := range r.plan.Choices {
			fmt.Fprintf(&b, "chosen %s -> %v\n", ch.Job.Name, ch.Window)
		}
	}
	return b.String()
}

// TestCanonicalStateMatchesFprintf drives Scheduler.CanonicalState and
// Round.CanonicalState (with Plan.CanonicalState inside it) through the
// states the model checker hashes and the edges a corrupted or relaxed
// request can reach: empty ledgers, an open round with and without a plan,
// local arrivals on, and requests and plan costs at NaN, ±Inf, -0, huge and
// tiny magnitudes, with clock values at the int64 extremes.
func TestCanonicalStateMatchesFprintf(t *testing.T) {
	for _, arrivals := range []bool{false, true} {
		pool := resource.MustNewPool([]*resource.Node{
			{Name: "a", Performance: 1, Price: 1, Domain: "west"},
			{Name: "b", Performance: 2, Price: 3, Domain: "east"},
		})
		grid, err := gridsim.New(pool)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Algorithm: alloc.ALP{}, Horizon: 1000, Step: 100}
		if arrivals {
			cfg.LocalArrivals = &LocalArrivals{Load: gridsim.LocalLoad{MeanGap: 200, DurMin: 10, DurMax: 30}, RNG: sim.NewRNG(7)}
		}
		s, err := New(cfg, grid)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			var b strings.Builder
			s.CanonicalState(&b)
			if got, want := b.String(), fprintfScheduler(s); got != want {
				t.Fatalf("arrivals=%t %s: Scheduler.CanonicalState differs from the Fprintf form\n got %q\nwant %q", arrivals, step, got, want)
			}
		}
		check("fresh")

		sv, err := NewService(s, ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i, price := range []sim.Money{4, 6} {
			j := &job.Job{Name: fmt.Sprintf("j%d", i+1), Priority: i, Request: job.ResourceRequest{
				Nodes: 1, Time: 40, MinPerformance: 1, MaxPrice: price}}
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		check("queued")
		r, err := sv.BeginRound()
		if err != nil {
			t.Fatal(err)
		}
		checkRound := func(step string) {
			t.Helper()
			var b strings.Builder
			r.CanonicalState(&b)
			if got, want := b.String(), fprintfRound(r); got != want {
				t.Fatalf("arrivals=%t %s: Round.CanonicalState differs from the Fprintf form\n got %q\nwant %q", arrivals, step, got, want)
			}
		}
		checkRound("open, unplanned")
		if err := r.Evaluate(); err != nil {
			t.Fatal(err)
		}
		if r.plan == nil || len(r.plan.Choices) == 0 {
			t.Fatal("the round planned no window")
		}
		checkRound("planned")
		for _, cost := range []sim.Money{sim.Money(math.NaN()), sim.Money(math.Inf(1)), sim.Money(math.Inf(-1)),
			sim.Money(math.Copysign(0, -1)), 1e21, math.MaxFloat64, 1e-7, 0.005} {
			r.rep.PlanCost = cost
			r.rep.PlanTime = math.MaxInt64
			r.staleNames = []string{"j2"}
			checkRound(fmt.Sprintf("plan cost %v", float64(cost)))
		}

		edges := []job.ResourceRequest{
			{Nodes: 3, Time: math.MaxInt64, MinPerformance: math.NaN(), MaxPrice: sim.Money(math.NaN()), BudgetFactor: math.Inf(1)},
			{Nodes: -1, Time: -5, MinPerformance: math.Inf(-1), MaxPrice: sim.Money(math.Inf(1)), BudgetFactor: 1e300},
			{Nodes: 0, Time: 0, MinPerformance: math.Copysign(0, -1), MaxPrice: sim.Money(math.Inf(-1)), BudgetFactor: 0.125},
			{Nodes: 1, Time: 1, MinPerformance: 1e-9, MaxPrice: math.MaxFloat64, BudgetFactor: math.NaN()},
		}
		for i, q := range s.queue {
			q.job.Request = edges[i%len(edges)]
			q.job.Priority = math.MinInt + i
			q.postponed = i + 7
			q.submitTick = math.MaxInt64
			q.notBefore = math.MinInt64
		}
		s.iter, s.seededTo = math.MaxInt, math.MinInt64
		s.retry = make(map[string]*retryState)
		for i, req := range edges {
			name := fmt.Sprintf("p%d", i)
			s.placed[name] = &job.Job{Name: name, Request: req}
			s.firstSubmit[name] = sim.Time(-i)
			s.retry[name] = &retryState{attempts: i, relaxations: math.MaxInt - i}
			s.droppedJobs[name] = fmt.Sprintf("reason with spaces %d", i)
		}
		s.retryStats = RetryStats{Cancelled: 1, Requeued: -2, Relaxations: math.MaxInt, DroppedExhausted: math.MinInt, DroppedDeadline: 5}
		check("edge values")
	}
}
