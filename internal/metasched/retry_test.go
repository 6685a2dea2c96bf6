package metasched

import (
	"fmt"
	"math"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

func TestRetryPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    RetryPolicy
		ok   bool
	}{
		{"zero value", RetryPolicy{}, true},
		{"full", RetryPolicy{MaxAttempts: 3, BackoffBase: 50, BackoffFactor: 2, BackoffMax: 400, JitterFrac: 0.2, PriceRelaxFactor: 1.2, MaxRelaxations: 2, JobDeadline: 2000}, true},
		{"negative attempts", RetryPolicy{MaxAttempts: -1}, false},
		{"negative relaxations", RetryPolicy{MaxRelaxations: -1}, false},
		{"negative backoff", RetryPolicy{BackoffBase: -1}, false},
		{"negative cap", RetryPolicy{BackoffMax: -1}, false},
		{"jitter too large", RetryPolicy{JitterFrac: 1}, false},
		{"negative jitter", RetryPolicy{JitterFrac: -0.1}, false},
		{"negative deadline", RetryPolicy{JobDeadline: -5}, false},
		{"NaN jitter", RetryPolicy{JitterFrac: math.NaN()}, false},
		{"+Inf jitter", RetryPolicy{JitterFrac: math.Inf(1)}, false},
		{"NaN backoff factor", RetryPolicy{BackoffBase: 10, BackoffFactor: math.NaN()}, false},
		{"+Inf backoff factor", RetryPolicy{BackoffBase: 10, BackoffFactor: math.Inf(1)}, false},
		{"-Inf backoff factor", RetryPolicy{BackoffBase: 10, BackoffFactor: math.Inf(-1)}, false},
		{"NaN price relax", RetryPolicy{PriceRelaxFactor: math.NaN(), MaxRelaxations: 1}, false},
		{"+Inf price relax", RetryPolicy{PriceRelaxFactor: math.Inf(1), MaxRelaxations: 1}, false},
		{"-Inf price relax", RetryPolicy{PriceRelaxFactor: math.Inf(-1)}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRetryBackoffDeterministicExponential(t *testing.T) {
	p := &RetryPolicy{BackoffBase: 100, BackoffFactor: 2, BackoffMax: 1000}
	wants := []sim.Duration{100, 200, 400, 800, 1000, 1000}
	for i, want := range wants {
		if got := p.backoff("j", i+1); got != want {
			t.Errorf("attempt %d: backoff = %v, want %v", i+1, got, want)
		}
	}

	// With jitter: bounded by ±JitterFrac, deterministic per (name,
	// attempt), and different across names and attempts.
	p.JitterFrac = 0.3
	seenDistinct := false
	for attempt := 1; attempt <= 4; attempt++ {
		for _, name := range []string{"a", "b"} {
			d := p.backoff(name, attempt)
			plain := RetryPolicy{BackoffBase: p.BackoffBase, BackoffFactor: p.BackoffFactor, BackoffMax: p.BackoffMax}
			nominal := plain.backoff(name, attempt)
			lo := sim.Duration(float64(nominal) * (1 - p.JitterFrac) * 0.999)
			hi := sim.Duration(float64(nominal)*(1+p.JitterFrac)*1.001) + 1
			if d < lo || d > hi {
				t.Errorf("jittered backoff(%s, %d) = %v outside [%v, %v]", name, attempt, d, lo, hi)
			}
			if d != nominal {
				seenDistinct = true
			}
			if again := p.backoff(name, attempt); again != d {
				t.Errorf("backoff(%s, %d) not deterministic: %v then %v", name, attempt, d, again)
			}
		}
	}
	if !seenDistinct {
		t.Error("jitter never moved any delay")
	}
	if p.backoff("a", 2) == p.backoff("b", 2) && p.backoff("a", 3) == p.backoff("b", 3) {
		t.Error("jitter identical across job names at every attempt")
	}

	// Far attempts saturate instead of wrapping: with the documented
	// defaults (no BackoffMax) the float delay passes int64 range at attempt
	// 57, and the delay must stay non-negative, non-decreasing and small
	// enough that now.Add(delay) cannot overflow.
	for _, jitter := range []float64{0, 0.25} {
		far := &RetryPolicy{BackoffBase: 150, BackoffFactor: 2, JitterFrac: jitter}
		prev := far.backoff("j", 55)
		for _, attempt := range []int{56, 57, 64, 2000} {
			d := far.backoff("j", attempt)
			if d < 0 || d < prev {
				t.Errorf("jitter %v attempt %d: backoff = %v after %v, want non-negative and non-decreasing", jitter, attempt, d, prev)
			}
			if at := sim.Infinity.Add(d); at < sim.Infinity {
				t.Errorf("jitter %v attempt %d: Infinity.Add(%v) overflowed to %v", jitter, attempt, d, at)
			}
			prev = d
		}
	}

	// Zero base stays zero regardless of jitter.
	z := &RetryPolicy{JitterFrac: 0.5, JitterSeed: 7}
	if got := z.backoff("j", 3); got != 0 {
		t.Errorf("zero-base backoff = %v, want 0", got)
	}
}

// retryGrid builds a 2-node grid with a placed single-node job "j1" on node
// a, the scheduler state mirroring a real placement.
func retryScheduler(t *testing.T, p *RetryPolicy) (*Scheduler, *gridsim.Grid) {
	t.Helper()
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 1, Domain: "west"},
		{Name: "b", Performance: 1, Price: 1, Domain: "east"},
	})
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Algorithm: alloc.ALP{},
		Horizon:   1000,
		Step:      100,
		Retry:     p,
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	return s, grid
}

// placeDirect books a window for the job and installs the scheduler-side
// placement record, as a successful iteration would.
func placeDirect(t *testing.T, s *Scheduler, g *gridsim.Grid, j *job.Job, node resource.NodeID, start, end sim.Time) {
	t.Helper()
	w := &slot.Window{JobName: j.Name, Placements: []slot.Placement{
		{Source: slot.New(g.Pool().Node(node), g.Now(), end+1000), Used: sim.Interval{Start: start, End: end}},
	}}
	if err := g.Commit(w); err != nil {
		t.Fatal(err)
	}
	s.placed[j.Name] = j
	if _, ok := s.firstSubmit[j.Name]; !ok {
		s.firstSubmit[j.Name] = g.Now()
	}
}

func testJob(name string) *job.Job {
	return &job.Job{Name: name, Request: job.ResourceRequest{
		Nodes: 1, Time: 50, MinPerformance: 0.5, MaxPrice: 10,
	}}
}

// TestHandleNodeFailureIdempotent pins the dedupe contract: failing the same
// node label twice (or overlapping fault events) must not re-queue a job
// that is already back in the queue, must not error, and must keep the
// cancelled = requeued + dropped conservation intact.
func TestHandleNodeFailureIdempotent(t *testing.T) {
	s, g := retryScheduler(t, nil)
	j := testJob("j1")
	placeDirect(t, s, g, j, 0, 10, 60)

	requeued, err := s.HandleNodeFailure("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) != 1 || requeued[0] != "j1" {
		t.Fatalf("first failure requeued %v, want [j1]", requeued)
	}
	if s.QueueLength() != 1 {
		t.Fatalf("queue length %d, want 1", s.QueueLength())
	}

	// Same label again: FailNode is a no-op, nothing re-queued, no error.
	again, err := s.HandleNodeFailure("a")
	if err != nil {
		t.Fatalf("second failure errored: %v", err)
	}
	if len(again) != 0 {
		t.Fatalf("second failure requeued %v, want none", again)
	}
	if s.QueueLength() != 1 {
		t.Fatalf("queue length %d after double failure, want 1 (no duplicate)", s.QueueLength())
	}

	// Harder: the job is simultaneously queued AND holds a stray grid
	// reservation under its name (the overlapping-fault shape). The
	// handler must dedupe by name instead of erroring on re-Submit or
	// duplicating the queue entry.
	stray := gridsim.Task{Name: "j1", Node: 1, Span: sim.Interval{Start: 20, End: 70}}
	if err := g.Book(stray); err != nil {
		t.Fatal(err)
	}
	s.placed["j1"] = j // simulate the inconsistent overlap window
	requeued, err = s.HandleNodeFailure("b")
	if err != nil {
		t.Fatalf("overlapping failure errored: %v", err)
	}
	if len(requeued) != 1 || requeued[0] != "j1" {
		t.Fatalf("overlapping failure requeued %v, want [j1] (deduped)", requeued)
	}
	if s.QueueLength() != 1 {
		t.Fatalf("queue length %d after overlapping failure, want 1 (deduped by name)", s.QueueLength())
	}
	st := s.RetryStats()
	if st.Cancelled != st.Requeued+st.DroppedExhausted+st.DroppedDeadline {
		t.Fatalf("conservation broken: %+v", st)
	}

	// Unknown label still errors.
	if _, err := s.HandleNodeFailure("zz"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestRetryLadder drives one job through the full degradation ladder:
// bounded attempts with backoff, a price-cap relaxation (with the AMP budget
// re-derived), and the terminal drop with a recorded reason.
func TestRetryLadder(t *testing.T) {
	p := &RetryPolicy{
		MaxAttempts:      2,
		BackoffBase:      30,
		BackoffFactor:    2,
		PriceRelaxFactor: 1.5,
		MaxRelaxations:   1,
	}
	s, g := retryScheduler(t, p)
	j := testJob("j1")
	basePrice := j.Request.MaxPrice
	baseBudget := j.Request.Budget()

	fail := func(label string) []string {
		t.Helper()
		requeued, err := s.HandleNodeFailure(label)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RecoverNode(g.Pool().ByName(label).ID); err != nil {
			t.Fatal(err)
		}
		return requeued
	}

	// Attempt 1: requeued with backoff 30.
	placeDirect(t, s, g, j, 0, 10, 60)
	if got := fail("a"); len(got) != 1 {
		t.Fatalf("attempt 1: requeued %v", got)
	}
	if nb := s.queue[0].notBefore; nb != 30 {
		t.Fatalf("attempt 1 notBefore = %v, want 30", nb)
	}
	// Held back: not eligible before tick 30.
	if batch := s.batchForIteration(); len(batch) != 0 {
		t.Fatalf("backoff job entered batch: %v", batch)
	}
	if err := g.Advance(30); err != nil {
		t.Fatal(err)
	}
	if batch := s.batchForIteration(); len(batch) != 1 {
		t.Fatal("job still held after backoff elapsed")
	}

	// Attempt 2: backoff doubles.
	s.queue = nil
	placeDirect(t, s, g, j, 1, 40, 90)
	if got := fail("b"); len(got) != 1 {
		t.Fatalf("attempt 2: requeued %v", got)
	}
	if nb := s.queue[0].notBefore; nb != g.Now().Add(60) {
		t.Fatalf("attempt 2 notBefore = %v, want now+60", nb)
	}

	// Attempt 3 exceeds MaxAttempts: the ladder relaxes the price cap and
	// re-queues at attempt 1 of the new rung.
	s.queue = nil
	placeDirect(t, s, g, j, 0, 40, 90)
	if got := fail("a"); len(got) != 1 {
		t.Fatalf("relaxation step: requeued %v", got)
	}
	if !j.Request.MaxPrice.ApproxEq(basePrice * 1.5) {
		t.Fatalf("price cap %v, want %v relaxed by 1.5", j.Request.MaxPrice, basePrice*1.5)
	}
	if !j.Request.Budget().ApproxEq(baseBudget * 1.5) {
		t.Fatalf("budget %v not re-derived from the relaxed cap", j.Request.Budget())
	}
	st := s.RetryStats()
	if st.Relaxations != 1 {
		t.Fatalf("relaxations = %d, want 1", st.Relaxations)
	}

	// Exhaust the new rung: the relaxation re-queue was its attempt 1, so
	// one more failure re-queues (attempt 2) and the next is terminal —
	// the ladder has no rungs left.
	s.queue = nil
	placeDirect(t, s, g, j, 1, g.Now().Add(10), g.Now().Add(60))
	if got := fail("b"); len(got) != 1 {
		t.Fatalf("rung 2 attempt 2: requeued %v", got)
	}
	s.queue = nil
	placeDirect(t, s, g, j, 0, g.Now().Add(10), g.Now().Add(60))
	if got := fail("a"); len(got) != 0 {
		t.Fatalf("terminal failure requeued %v, want drop", got)
	}
	if reason := s.DroppedJobs()["j1"]; reason != "retries-exhausted" {
		t.Fatalf("drop reason %q, want retries-exhausted", reason)
	}
	st = s.RetryStats()
	if st.DroppedExhausted != 1 {
		t.Fatalf("dropped-exhausted = %d, want 1", st.DroppedExhausted)
	}
	if st.Cancelled != st.Requeued+st.DroppedExhausted+st.DroppedDeadline {
		t.Fatalf("conservation broken: %+v", st)
	}
}

// TestRetryDeadline drops a cancelled job whose age exceeds the per-job
// deadline, with the recorded reason.
func TestRetryDeadline(t *testing.T) {
	p := &RetryPolicy{JobDeadline: 100}
	s, g := retryScheduler(t, p)
	j := testJob("j1")
	placeDirect(t, s, g, j, 0, 10, 300) // firstSubmit at tick 0

	if err := g.Advance(150); err != nil {
		t.Fatal(err)
	}
	requeued, err := s.HandleNodeFailure("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) != 0 {
		t.Fatalf("expired job requeued: %v", requeued)
	}
	if reason := s.DroppedJobs()["j1"]; reason != "deadline" {
		t.Fatalf("drop reason %q, want deadline", reason)
	}
	st := s.RetryStats()
	if st.DroppedDeadline != 1 || st.Cancelled != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHandleRevocationRequeues covers the owner-reclaim path end to end: a
// revocation overlapping one placement of a two-node job cancels the whole
// window (synchronous start), refunds the owners, re-queues the job, and a
// revocation missing every reservation is a no-op.
func TestHandleRevocationRequeues(t *testing.T) {
	s, g := retryScheduler(t, &RetryPolicy{BackoffBase: 20})
	j := testJob("par")
	j.Request.Nodes = 2
	w := &slot.Window{JobName: "par", Placements: []slot.Placement{
		{Source: slot.New(g.Pool().Node(0), 0, 1000), Used: sim.Interval{Start: 100, End: 150}},
		{Source: slot.New(g.Pool().Node(1), 0, 1000), Used: sim.Interval{Start: 100, End: 150}},
	}}
	if err := g.Commit(w); err != nil {
		t.Fatal(err)
	}
	s.placed["par"] = j
	s.firstSubmit["par"] = 0

	// A revocation elsewhere on the node touches nothing.
	requeued, err := s.HandleRevocation("a", sim.Interval{Start: 300, End: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) != 0 || s.PlacedCount() != 1 {
		t.Fatalf("disjoint revocation: requeued %v, placed %d", requeued, s.PlacedCount())
	}

	// Overlap one placement: both placements release, the job re-queues
	// with its backoff, income returns to zero.
	requeued, err = s.HandleRevocation("a", sim.Interval{Start: 120, End: 130})
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) != 1 || requeued[0] != "par" {
		t.Fatalf("revocation requeued %v, want [par]", requeued)
	}
	// Only the owners' reclaim bookings remain (one per revocation — the
	// disjoint revocation above reclaimed its span too).
	for _, tk := range g.AllTasks() {
		if !tk.Local {
			t.Fatalf("VO reservation %v survived the revocation", tk)
		}
	}
	if n := len(g.AllTasks()); n != 2 {
		t.Fatalf("%d tasks after revocation, want 2 reclaim bookings", n)
	}
	if _, total := g.OwnerIncome(); !total.ApproxEq(0) {
		t.Fatalf("income %v after full release, want 0", total)
	}
	if nb := s.queue[0].notBefore; nb != 20 {
		t.Fatalf("notBefore = %v, want backoff 20", nb)
	}
	if _, err := s.HandleRevocation("zz", sim.Interval{Start: 0, End: 1}); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestHandleNodeRecovery pins the scheduler-level recovery hook: idempotent,
// vacancy returns, unknown labels error.
func TestHandleNodeRecovery(t *testing.T) {
	s, g := retryScheduler(t, nil)
	if err := s.HandleNodeRecovery("a"); err != nil {
		t.Fatalf("recovering a healthy node: %v", err)
	}
	if _, err := s.HandleNodeFailure("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleNodeRecovery("a"); err != nil {
		t.Fatal(err)
	}
	if g.NodeFailed(0) {
		t.Fatal("node still failed after HandleNodeRecovery")
	}
	if err := s.HandleNodeRecovery("zz"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestRetrySessionEndToEnd runs a real scheduling session with a mid-session
// failure and recovery under a retry policy, checking the job comes back and
// the bookkeeping conserves.
func TestRetrySessionEndToEnd(t *testing.T) {
	rng := sim.NewRNG(11)
	pricing := resource.PaperPricing()
	var nodes []*resource.Node
	for i := 0; i < 6; i++ {
		perf := rng.FloatBetween(1, 2)
		nodes = append(nodes, &resource.Node{
			Name: fmt.Sprintf("n%d", i), Performance: perf, Price: pricing.Sample(rng, perf),
		})
	}
	grid, err := gridsim.New(resource.MustNewPool(nodes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Algorithm: alloc.AMP{},
		Horizon:   800,
		Step:      100,
		Retry: &RetryPolicy{
			MaxAttempts: 3, BackoffBase: 50, BackoffFactor: 2,
			JitterFrac: 0.2, JitterSeed: 99,
			PriceRelaxFactor: 1.3, MaxRelaxations: 2,
		},
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j := &job.Job{Name: fmt.Sprintf("job%d", i), Priority: i, Request: job.ResourceRequest{
			Nodes: 1, Time: sim.Duration(rng.IntBetween(40, 80)), MinPerformance: 1,
			MaxPrice: pricing.BasePrice(1.5) * 2,
		}}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sv, err := NewService(s, ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	placedEver := map[string]bool{}
	for it := 0; it < 12; it++ {
		rep, err := sv.Tick()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Placed {
			placedEver[p.Job.Name] = true
		}
		if it == 1 {
			if _, err := s.HandleNodeFailure("n0"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.HandleNodeFailure("n1"); err != nil {
				t.Fatal(err)
			}
		}
		if it == 4 {
			if err := s.HandleNodeRecovery("n0"); err != nil {
				t.Fatal(err)
			}
			if err := s.HandleNodeRecovery("n1"); err != nil {
				t.Fatal(err)
			}
		}
		// Conservation after every step.
		if got := s.QueueLength() + s.PlacedCount() + len(s.DroppedJobs()); got != s.SubmittedCount() {
			t.Fatalf("iteration %d: %d accounted of %d submitted", it, got, s.SubmittedCount())
		}
		st := s.RetryStats()
		if st.Cancelled != st.Requeued+st.DroppedExhausted+st.DroppedDeadline {
			t.Fatalf("iteration %d: conservation broken: %+v", it, st)
		}
	}
	if len(placedEver) == 0 {
		t.Fatal("session placed nothing")
	}
}
