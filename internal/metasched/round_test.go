package metasched_test

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
)

// stepGrid builds a tiny deterministic environment: two identical nodes in
// one domain, fully vacant.
func stepGrid(t *testing.T) (*gridsim.Grid, *resource.Pool) {
	t.Helper()
	pool, err := resource.NewPool([]*resource.Node{
		{Name: "n1", Performance: 1, Price: 2, Domain: "d0"},
		{Name: "n2", Performance: 1, Price: 3, Domain: "d0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	return grid, pool
}

// stepService wraps a scheduler over grid in its service.
func stepService(t *testing.T, grid *gridsim.Grid) *metasched.Service {
	t.Helper()
	s, err := metasched.New(metasched.Config{
		Algorithm:        alloc.ALP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          200,
		Step:             50,
		MaxPostponements: 4,
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	return service(t, s)
}

func stepJob(name string) *job.Job {
	return &job.Job{Name: name, Request: job.ResourceRequest{
		Nodes: 1, Time: 40, MinPerformance: 1, MaxPrice: 10,
	}}
}

// conserved fails the test unless the job ledger balances: every submitted
// job is exactly one of queued, placed, or dropped.
func conserved(t *testing.T, s *metasched.Scheduler) {
	t.Helper()
	sub, q, p, d := s.SubmittedCount(), s.QueueLength(), s.PlacedCount(), len(s.DroppedJobs())
	if sub != q+p+d {
		t.Fatalf("job conservation broken: %d submitted != %d queued + %d placed + %d dropped", sub, q, p, d)
	}
}

// TestStepSequenceMatchesRunIteration proves Tick is the phase sequence: two
// identical sessions, one driven by Tick and one by BeginRound → Evaluate →
// Apply → Finish with nothing interleaved, produce identical reports and
// identical canonical states.
func TestStepSequenceMatchesRunIteration(t *testing.T) {
	run := func(steps bool) (string, *metasched.IterationReport) {
		grid, _ := stepGrid(t)
		sv := stepService(t, grid)
		for _, name := range []string{"a", "b", "c"} {
			if err := sv.Submit(stepJob(name)); err != nil {
				t.Fatal(err)
			}
		}
		var rep *metasched.IterationReport
		for i := 0; i < 3; i++ {
			var err error
			if steps {
				r, e := sv.BeginRound()
				if e != nil {
					t.Fatal(e)
				}
				if e := r.Evaluate(); e != nil {
					t.Fatal(e)
				}
				if e := r.Apply(); e != nil {
					t.Fatal(e)
				}
				rep, err = r.Finish()
			} else {
				rep, err = sv.Tick()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		grid.CanonicalState(&b)
		sv.Scheduler().CanonicalState(&b)
		return b.String(), rep
	}
	mono, monoRep := run(false)
	step, stepRep := run(true)
	if mono != step {
		t.Fatalf("step-driven session diverged from Tick:\n--- tick ---\n%s\n--- steps ---\n%s", mono, step)
	}
	if monoRep.Iteration != stepRep.Iteration || len(monoRep.Placed) != len(stepRep.Placed) {
		t.Fatalf("reports diverged: tick %+v vs steps %+v", monoRep, stepRep)
	}
}

// TestApplyStaleWindowPostpones is the regression test for the
// commit-path leak: a window that failed to commit used to abort the round
// after earlier windows had already booked, leaving the job both queued and
// placed (submitted != queued + placed + dropped). Now a mid-round node
// failure makes the planned window stale, Apply postpones the job cleanly,
// and the ledger stays balanced.
func TestApplyStaleWindowPostpones(t *testing.T) {
	grid, _ := stepGrid(t)
	sv := stepService(t, grid)
	s := sv.Scheduler()
	if err := sv.Submit(stepJob("solo")); err != nil {
		t.Fatal(err)
	}
	r, err := sv.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evaluate(); err != nil {
		t.Fatal(err)
	}
	// The environment shifts between Evaluate and Apply: both nodes crash,
	// so whatever window the plan chose can no longer be committed.
	for _, n := range []string{"n1", "n2"} {
		if _, err := sv.HandleNodeFailure(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Apply(); err != nil {
		t.Fatalf("stale window must postpone, not error: %v", err)
	}
	if r.StaleWindows() != 1 {
		t.Fatalf("StaleWindows = %d, want 1", r.StaleWindows())
	}
	rep, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) != 0 || len(rep.Postponed) != 1 || rep.Postponed[0] != "solo" {
		t.Fatalf("report = placed %v postponed %v, want solo postponed", rep.Placed, rep.Postponed)
	}
	if s.PlacedCount() != 0 {
		t.Fatal("stale commit leaked a placed record")
	}
	if tasks := grid.AllTasks(); len(tasks) != 0 {
		t.Fatalf("stale commit leaked bookings: %v", tasks)
	}
	conserved(t, s)

	// After the nodes recover the job schedules normally.
	for _, n := range []string{"n1", "n2"} {
		if err := sv.HandleNodeRecovery(n); err != nil {
			t.Fatal(err)
		}
	}
	placed := false
	for i := 0; i < 4 && !placed; i++ {
		rep, err := sv.Tick()
		if err != nil {
			t.Fatal(err)
		}
		placed = len(rep.Placed) == 1
	}
	if !placed {
		t.Fatal("job never recovered from the stale window")
	}
	conserved(t, s)
}

// TestApplyClockOvertakesWindow covers the second staleness cause: a retry
// tick advancing the clock past the planned window's start between Evaluate
// and Apply. The commit is rejected (bookings cannot start in the past) and
// the job is postponed with the ledger intact.
func TestApplyClockOvertakesWindow(t *testing.T) {
	grid, _ := stepGrid(t)
	sv := stepService(t, grid)
	s := sv.Scheduler()
	if err := sv.Submit(stepJob("late")); err != nil {
		t.Fatal(err)
	}
	r, err := sv.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evaluate(); err != nil {
		t.Fatal(err)
	}
	// A fully vacant grid plans the window at the current time, so any
	// clock advance overtakes it.
	if err := grid.Advance(grid.Now().Add(10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(); err != nil {
		t.Fatal(err)
	}
	if r.StaleWindows() != 1 || s.PlacedCount() != 0 {
		t.Fatalf("stale=%d placed=%d, want 1 and 0", r.StaleWindows(), s.PlacedCount())
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	conserved(t, s)
}

// TestStepMisuseGuards pins the round protocol: every out-of-order call is
// rejected without touching scheduler state, and the round stays usable.
func TestStepMisuseGuards(t *testing.T) {
	grid, _ := stepGrid(t)
	sv := stepService(t, grid)
	if err := sv.Submit(stepJob("guard")); err != nil {
		t.Fatal(err)
	}
	r, err := sv.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	mustReject := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted", what)
		}
	}
	mustReject("Apply before Evaluate", r.Apply())
	_, err = sv.BeginRound()
	mustReject("BeginRound while a round is open", err)
	if err := r.Evaluate(); err != nil {
		t.Fatal(err)
	}
	mustReject("second Evaluate", r.Evaluate())
	mustReject("InstallPlan after Evaluate", r.InstallPlan(nil))
	if err := r.Apply(); err != nil {
		t.Fatal(err)
	}
	mustReject("second Apply", r.Apply())
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Finish()
	mustReject("second Finish", err)
	if grid.Now() != 50 {
		t.Fatalf("clock at %v after one finished round, want 50: a rejected Finish advanced it", grid.Now())
	}
	conserved(t, sv.Scheduler())
}

// TestFinishRequiresApply pins the Finish contract: only a round whose batch
// is empty may skip the plan and apply phases. A round with a batch must run
// Apply — after Evaluate or after InstallPlan — or its jobs would leave the
// round neither placed nor postponed while the report claims they were
// attempted. A rejected Finish leaves the round open and the clock where it
// was.
func TestFinishRequiresApply(t *testing.T) {
	for _, tc := range []struct {
		name   string
		submit bool
		phases func(*metasched.Round) error
		ok     bool
	}{
		{"empty batch, no phases", false, func(*metasched.Round) error { return nil }, true},
		{"batch, no phases", true, func(*metasched.Round) error { return nil }, false},
		{"batch, evaluated", true, (*metasched.Round).Evaluate, false},
		{"batch, installed", true, func(r *metasched.Round) error { return r.InstallPlan(nil) }, false},
		{"batch, evaluated and applied", true, func(r *metasched.Round) error {
			if err := r.Evaluate(); err != nil {
				return err
			}
			return r.Apply()
		}, true},
		{"batch, installed and applied", true, func(r *metasched.Round) error {
			if err := r.InstallPlan(nil); err != nil {
				return err
			}
			return r.Apply()
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, _ := stepGrid(t)
			sv := stepService(t, grid)
			if tc.submit {
				if err := sv.Submit(stepJob("j")); err != nil {
					t.Fatal(err)
				}
			}
			r, err := sv.BeginRound()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.phases(r); err != nil {
				t.Fatal(err)
			}
			rep, err := r.Finish()
			if !tc.ok {
				if err == nil {
					t.Fatalf("Finish accepted; report %+v", rep)
				}
				if grid.Now() != 0 {
					t.Fatalf("rejected Finish advanced the clock to %v", grid.Now())
				}
				if _, err := sv.BeginRound(); err == nil {
					t.Fatal("rejected Finish closed the round")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.submit && len(rep.Placed)+len(rep.Postponed) != rep.BatchSize {
				t.Fatalf("batch of %d left %d placed + %d postponed", rep.BatchSize, len(rep.Placed), len(rep.Postponed))
			}
			conserved(t, sv.Scheduler())
		})
	}
}
