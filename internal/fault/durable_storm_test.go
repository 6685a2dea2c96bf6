package fault_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/codec"
	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// durableChaosFactory rebuilds the chaos scenario's pristine pre-journal
// service — pool, local load, retry policy, and the 8 submitted jobs all come
// deterministically from the seed, which is exactly the contract
// durable.Recover's factory must honor.
func durableChaosFactory(t testing.TB, seed uint64, algo alloc.Algorithm) durable.Factory {
	return func() (*metasched.Service, error) {
		return chaosService(t, seed, algo, metasched.MinimizeTime, 1), nil
	}
}

// TestCrashStormSoak is the chaos soak's crash-storm mode: the full chaos
// session runs over the durable journaling wrapper and is crashed after every
// single round — the wrapper is dropped on the floor and rebuilt with
// durable.Recover (checkpoint restore on even cadence, full journal replay
// otherwise), then the session resumes where the plan left off. The storm
// must be invisible three ways: the state hash after every recovery equals
// the uncrashed run's hash at the same round, the recovery-coherence audit
// (journal applied-plan ledger vs scheduler placed set vs live reservations)
// stays clean after every recovery, and the transcript assembled across all
// ten crashed segments is byte-identical to the uncrashed session's. A
// crash-free durable run is compared too, proving the wrapper itself is
// transcript-neutral.
func TestCrashStormSoak(t *testing.T) {
	seeds := []uint64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, a := range []struct {
			name string
			algo alloc.Algorithm
		}{{"ALP", alloc.ALP{}}, {"AMP", alloc.AMP{}}} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, a.name), func(t *testing.T) {
				factory := durableChaosFactory(t, seed, a.algo)
				plan := chaosPlan(t, chaosService(t, seed, a.algo, metasched.MinimizeTime, 1).Scheduler().Grid().Pool(), seed, 0.6)

				// Uncrashed reference: plain service session, stepped so the
				// canonical state hash is captured at every round boundary.
				refSvc, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				var base strings.Builder
				refSess, err := fault.NewSession(refSvc, plan, &base)
				if err != nil {
					t.Fatal(err)
				}
				hashes := make([]uint64, chaosIterations+1)
				hashes[0] = durable.StateHash(refSvc)
				for i := 0; i < chaosIterations; i++ {
					if _, err := refSess.Step(); err != nil {
						t.Fatalf("reference step %d: %v", i, err)
					}
					hashes[i+1] = durable.StateHash(refSvc)
				}
				fault.WriteSummary(&base, refSvc.Scheduler(), refSess.Applied(), plan.Len())
				if !strings.Contains(base.String(), "fault ") {
					t.Fatal("chaos session injected no faults — the storm is not storming")
				}

				// Crash-free durable run: the wrapper must be transcript-neutral.
				dir := t.TempDir()
				cpEvery := 0
				if seed%2 != 0 {
					cpEvery = 2
				}
				neutralOpts := durable.Options{
					JournalPath:     filepath.Join(dir, "neutral.journal"),
					CheckpointPath:  filepath.Join(dir, "neutral.ckpt"),
					CheckpointEvery: cpEvery,
				}
				nSvc, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				nds, err := durable.New(nSvc, neutralOpts)
				if err != nil {
					t.Fatal(err)
				}
				var neutral strings.Builder
				nSess, err := fault.NewSession(nds, plan, &neutral)
				if err != nil {
					t.Fatal(err)
				}
				if err := nSess.Run(chaosIterations); err != nil {
					t.Fatalf("crash-free durable run: %v", err)
				}
				if neutral.String() != base.String() {
					t.Fatalf("durable wrapper changed the transcript\n--- plain ---\n%s\n--- durable ---\n%s",
						base.String(), neutral.String())
				}

				// The storm: crash and recover after every round.
				opts := durable.Options{
					JournalPath:     filepath.Join(dir, "storm.journal"),
					CheckpointPath:  filepath.Join(dir, "storm.ckpt"),
					CheckpointEvery: cpEvery,
				}
				sSvc, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				ds, err := durable.New(sSvc, opts)
				if err != nil {
					t.Fatal(err)
				}
				var storm strings.Builder
				sess, err := fault.NewSession(ds, plan, &storm)
				if err != nil {
					t.Fatal(err)
				}
				applied := 0
				for i := 0; i < chaosIterations; i++ {
					if _, err := sess.Step(); err != nil {
						t.Fatalf("storm round %d: %v", i, err)
					}
					applied = sess.Applied()
					if got := durable.StateHash(ds.Unwrap()); got != hashes[i+1] {
						t.Fatalf("round %d: pre-crash hash %x, reference %x", i, got, hashes[i+1])
					}
					// Crash: abandon the wrapper mid-flight and recover from disk.
					ds.Close()
					rds, rep, err := durable.Recover(opts, factory)
					if err != nil {
						t.Fatalf("recover after round %d: %v", i, err)
					}
					if got := durable.StateHash(rds.Unwrap()); got != hashes[i+1] {
						t.Fatalf("round %d: recovered hash %x, reference %x", i, got, hashes[i+1])
					}
					if cpEvery > 0 && i+1 >= cpEvery && !rep.CheckpointUsed {
						t.Fatalf("round %d: recovery ignored the checkpoint", i)
					}
					if err := fault.NewAudit(rds.Scheduler()).CheckRecoveryCoherence(rep.AppliedLive); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
					ds = rds
					sess, err = fault.NewSession(ds, plan, &storm)
					if err != nil {
						t.Fatal(err)
					}
					if err := sess.Resume(applied); err != nil {
						t.Fatal(err)
					}
				}
				fault.WriteSummary(&storm, ds.Scheduler(), applied, plan.Len())
				ds.Close()
				if storm.String() != base.String() {
					t.Fatalf("crash-storm transcript diverged from uncrashed run\n--- uncrashed ---\n%s\n--- storm ---\n%s",
						base.String(), storm.String())
				}
			})
		}
	}
}

// TestSessionDrain pins the end-of-plan draining contract: Run(n) stops after
// exactly n rounds and Pending reports the plan events it left unapplied.
// Drain finishes that tail under the same audit, errors
// when its round budget is too small, and leaves the session quiescent.
func TestSessionDrain(t *testing.T) {
	half := chaosIterations / 2
	sawPending := false
	for _, seed := range []uint64{3, 7, 11} {
		// Half-length run, then drain.
		svc := chaosService(t, seed, alloc.AMP{}, metasched.MinimizeTime, 1)
		plan := chaosPlan(t, svc.Scheduler().Grid().Pool(), seed, 0.6)
		var b strings.Builder
		sess, err := fault.NewSession(svc, plan, &b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < half; i++ {
			if _, err := sess.Step(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		if sess.Pending() == 0 {
			continue
		}
		sawPending = true
		if _, err := sess.Drain(0); err == nil {
			t.Fatalf("seed %d: Drain(0) with %d pending returned no error", seed, sess.Pending())
		}
		ran, err := sess.Drain(60)
		if err != nil {
			t.Fatalf("seed %d: drain: %v\ntranscript:\n%s", seed, err, b.String())
		}
		if ran == 0 {
			t.Fatalf("seed %d: drain ran no rounds with work pending", seed)
		}
		if sess.Pending() != 0 {
			t.Fatalf("seed %d: %d still pending after drain", seed, sess.Pending())
		}
		if sess.Applied() != plan.Len() {
			t.Fatalf("seed %d: drain finished with %d/%d events applied", seed, sess.Applied(), plan.Len())
		}
		if v := sess.Audit().Violations(); len(v) > 0 {
			t.Fatalf("seed %d: %d audit violations during drain: %v", seed, len(v), v)
		}
		if !strings.Contains(b.String(), fmt.Sprintf("drained rounds=%d events=%d/%d\n", ran, plan.Len(), plan.Len())) {
			t.Fatalf("seed %d: drain footer missing from transcript:\n%s", seed, b.String())
		}
	}
	if !sawPending {
		t.Fatal("no seed left work pending after a half-length run — the drain path was never exercised")
	}

	// A resumed cursor is only valid on a fresh session and inside the plan.
	svc := chaosService(t, 3, alloc.ALP{}, metasched.MinimizeTime, 1)
	plan := chaosPlan(t, svc.Scheduler().Grid().Pool(), 3, 0.6)
	fresh, err := fault.NewSession(svc, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Resume(plan.Len() + 1); err == nil {
		t.Fatal("Resume accepted a cursor past the plan end")
	}
	if err := fresh.Resume(1); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Resume(1); err == nil {
		t.Fatal("Resume accepted a second fast-forward")
	}
}

// TestCheckRecoveryCoherence drives the recovery-coherence invariant against
// hand-made incoherent states — a placed job missing from the journal ledger,
// a journaled applied plan whose job vanished from the placed set, and a live
// reservation no journal record covers — to prove the crash-storm's "clean
// after every recovery" claim has teeth.
func TestCheckRecoveryCoherence(t *testing.T) {
	svc := chaosService(t, 1, alloc.ALP{}, metasched.MinimizeTime, 1)
	sched := svc.Scheduler()
	a := fault.NewAudit(sched)
	if err := a.CheckRecoveryCoherence(nil); err != nil {
		t.Fatalf("pristine scheduler with empty ledger flagged: %v", err)
	}
	for i := 0; i < 4 && sched.PlacedCount() == 0; i++ {
		if _, err := svc.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	placed := sched.PlacedJobs()
	if len(placed) == 0 {
		t.Fatal("scenario placed no jobs — the coherence checks below would be vacuous")
	}
	if err := a.CheckRecoveryCoherence(placed); err != nil {
		t.Fatalf("coherent state flagged: %v", err)
	}
	if err := a.CheckRecoveryCoherence(placed[1:]); err == nil ||
		!strings.Contains(err.Error(), "no journaled applied plan") {
		t.Fatalf("placed job missing from the ledger not flagged, got: %v", err)
	}
	if err := a.CheckRecoveryCoherence(append(append([]string{}, placed...), "zz-ghost")); err == nil ||
		!strings.Contains(err.Error(), "lost") {
		t.Fatalf("ledger entry without a placed job not flagged, got: %v", err)
	}
	// An unlogged booking smuggled past the scheduler: live VO reservation
	// with no ledger cover.
	now := sched.Grid().Now()
	sched.Grid().ForceBook(gridsim.Task{Name: "orphan", Node: 0, Span: sim.Interval{Start: now.Add(10), End: now.Add(100)}})
	if err := a.CheckRecoveryCoherence(placed); err == nil ||
		!strings.Contains(err.Error(), "live reservation") {
		t.Fatalf("unlogged live reservation not flagged, got: %v", err)
	}
}

// TestJournalEventsAreThePlan is the journal ↔ plan differential: the fault
// engine, the journal codec and the durable wrapper share one event type. A
// chaos session runs through the durable wrapper; read back, its journal's
// event records are exactly the events the session applied, each stamped
// with the clock it fired at (the first round boundary at or after its plan
// time). Driven by those records as a plan, a fresh session writes the same
// transcript — up to the plan times its fault lines print — and the same
// journal, byte for byte. The seeded plan sits on the round grid; the
// hand-written one does not, so its events are re-stamped.
func TestJournalEventsAreThePlan(t *testing.T) {
	const seed = 5
	pool := chaosService(t, seed, alloc.AMP{}, metasched.MinimizeTime, 1).Scheduler().Grid().Pool()
	offGrid, err := fault.ParsePlan("fail@100:n3;revoke@200:n5:500-700;recover@520:n3;fail@1000:n7")
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan *fault.Plan
	}{{"seeded", chaosPlan(t, pool, seed, 0.6)}, {"off-grid", offGrid}}
	for _, c := range plans {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			// run plays the session round by round through the durable
			// wrapper and returns its transcript, its journal's bytes and
			// event records, and how many plan events it applied.
			run := func(plan *fault.Plan, name string) (string, []byte, []fault.Event, int) {
				path := filepath.Join(dir, name)
				ds, err := durable.New(chaosService(t, seed, alloc.AMP{}, metasched.MinimizeTime, 1), durable.Options{JournalPath: path})
				if err != nil {
					t.Fatal(err)
				}
				var w strings.Builder
				sess, err := fault.NewSession(ds, plan, &w)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < chaosIterations; i++ {
					if _, err := sess.Step(); err != nil {
						t.Fatalf("%s round %d: %v", name, i, err)
					}
				}
				if err := ds.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				payloads, _, _ := codec.ScanFrames(data[len(codec.JournalMagic):])
				var events []fault.Event
				for _, p := range payloads {
					rec, err := codec.DecodeRecord(p, pool)
					if err != nil {
						t.Fatal(err)
					}
					if k := rec.Event.Kind; k != fault.Submit && k != fault.Round {
						events = append(events, rec.Event)
					}
				}
				return w.String(), data, events, sess.Applied()
			}

			transcript, journal, events, applied := run(c.plan, "planned.journal")
			if applied == 0 {
				t.Fatal("the session applied no events")
			}
			step := int64(chaosStep)
			want := append([]fault.Event(nil), c.plan.Events[:applied]...)
			wantTranscript := transcript
			for i := range want {
				want[i].At = sim.Time((int64(want[i].At) + step - 1) / step * step)
				line := "fault " + c.plan.Events[i].String() + " "
				if !strings.Contains(wantTranscript, line) {
					t.Fatalf("transcript lacks a %q line", line)
				}
				wantTranscript = strings.Replace(wantTranscript, line, "fault "+want[i].String()+" ", 1)
			}
			if !reflect.DeepEqual(events, want) {
				t.Fatalf("journal event records\n%v\nwant the applied plan events stamped at their firing clock\n%v", events, want)
			}

			replanned, err := fault.NewPlan(events...)
			if err != nil {
				t.Fatal(err)
			}
			transcript2, journal2, _, applied2 := run(replanned, "replanned.journal")
			if applied2 != len(events) {
				t.Fatalf("replanned session applied %d of %d events", applied2, len(events))
			}
			if transcript2 != wantTranscript {
				t.Fatalf("replanned transcript diverged\n--- want ---\n%s\n--- replanned ---\n%s", wantTranscript, transcript2)
			}
			if !bytes.Equal(journal2, journal) {
				t.Fatal("replanned session wrote a different journal")
			}
		})
	}
}
