package metasched_test

import (
	"hash/fnv"
	"sort"
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

// fuzzStep is the universe's clock step: round k starts at k*fuzzStep, so
// the decoder can stamp every event with the clock it will apply at.
const fuzzStep = 50

// eventOrder decodes the fuzz input into a bounded event script over the
// small fixed universe. Each byte selects, by b%8, submit j1..j4, fail,
// recover or revoke of node n1..n3 (by b/8), or a round; the sequence is
// capped so every input terminates quickly.
func eventOrder(data []byte) []fault.Event {
	const maxOps, maxRounds = 48, 12
	if len(data) > maxOps {
		data = data[:maxOps]
	}
	labels := []string{"n1", "n2", "n3"}
	rounds := 0
	var events []fault.Event
	for _, b := range data {
		now := sim.Time(fuzzStep * rounds)
		e := fault.Event{At: now, Node: labels[int(b/8)%len(labels)]}
		switch op := b % 8; {
		case op < 4:
			idx := int(op) + 1
			e.Kind, e.Node = fault.Submit, ""
			e.Job = &job.Job{
				Name:     "j" + string(rune('0'+idx)),
				Priority: idx,
				Request:  job.ResourceRequest{Nodes: 1, Time: 40, MinPerformance: 1, MaxPrice: 10},
			}
		case op == 4:
			e.Kind = fault.Fail
		case op == 5:
			e.Kind = fault.Recover
		case op == 6:
			e.Kind = fault.Revoke
			e.Span = sim.Interval{Start: now.Add(10), End: now.Add(60)}
		default:
			if rounds >= maxRounds {
				continue
			}
			rounds++
			e.Kind, e.Node = fault.Round, ""
		}
		events = append(events, e)
	}
	return events
}

// commutative reports whether the script holds only submits and rounds.
// Submissions within one round segment are commutative: jobs carry distinct
// priorities, so the frozen batch — and therefore the schedule — is
// independent of their arrival order. Fault events are not commutative
// (failing a node before versus after a round cancels different bookings).
func commutative(events []fault.Event) bool {
	for _, e := range events {
		if e.Kind != fault.Submit && e.Kind != fault.Round {
			return false
		}
	}
	return true
}

// canonicalOrder rewrites a commutative script into its canonical form:
// within each round-delimited segment the submits are sorted by job name.
func canonicalOrder(events []fault.Event) []fault.Event {
	out := append([]fault.Event(nil), events...)
	segStart := 0
	flush := func(end int) {
		seg := out[segStart:end]
		sort.SliceStable(seg, func(a, b int) bool { return seg[a].Job.Name < seg[b].Job.Name })
		segStart = end + 1
	}
	for i, e := range out {
		if e.Kind == fault.Round {
			flush(i)
		}
	}
	flush(len(out))
	return out
}

// runEventOrder plays the script through a fresh service, each event
// through fault.Dispatch, running the full fault audit after every event,
// and returns the FNV-64a hash of the final canonical grid state. Duplicate
// submits are rejected by contract and skipped — the fuzzer explores them
// freely; every other event must apply.
func runEventOrder(t *testing.T, events []fault.Event) uint64 {
	t.Helper()
	nodes := []*resource.Node{
		{Name: "n1", Performance: 1, Price: 2},
		{Name: "n2", Performance: 1, Price: 3},
		{Name: "n3", Performance: 1, Price: 4},
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
		Horizon:          300,
		Step:             fuzzStep,
		MaxPostponements: 3,
		Retry:            &metasched.RetryPolicy{MaxAttempts: 2, BackoffBase: 50, BackoffMax: 50},
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	audit := fault.NewAudit(sched)
	script := (&fault.Plan{Events: events}).String()
	for _, e := range events {
		if e.At != grid.Now() {
			t.Fatalf("script %q: %v decoded for a clock of %v", script, e, grid.Now())
		}
		if _, _, err := fault.Dispatch(svc, e); err != nil && e.Kind != fault.Submit {
			t.Fatalf("script %q: %v: %v", script, e, err)
		}
		if err := audit.Check(); err != nil {
			t.Fatalf("script %q: audit violated after %v: %v", script, e, err)
		}
	}
	// Settle with a fixed drain so both orderings compare the same number of
	// rounds; recover everything first so the drain has capacity.
	for _, n := range nodes {
		if err := svc.HandleNodeRecovery(n.Name); err != nil {
			t.Fatalf("script %q: drain recover %s: %v", script, n.Name, err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := svc.Tick(); err != nil {
			t.Fatalf("script %q: drain round: %v", script, err)
		}
		if err := audit.Check(); err != nil {
			t.Fatalf("script %q: audit violated during drain: %v", script, err)
		}
	}
	var b strings.Builder
	grid.CanonicalState(&b)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

// FuzzEventOrder feeds arbitrary event scripts of a small universe through
// the continuous service: every script must keep all fault.Audit invariants
// after every event, and a commutative script (submits and rounds only)
// must converge to the same final grid hash as its canonical order —
// arrival order within a round cannot change the schedule.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte("01237777"))
	f.Add([]byte("10327777"))
	f.Add([]byte("3210777777"))
	f.Add([]byte("0412773577"))
	f.Add([]byte("0617277737"))
	f.Add([]byte("7704127"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events := eventOrder(data)
		got := runEventOrder(t, events)
		if commutative(events) {
			canon := canonicalOrder(events)
			if want := runEventOrder(t, canon); got != want {
				t.Fatalf("script %v: final grid hash %x diverged from canonical order %v hash %x",
					&fault.Plan{Events: events}, got, &fault.Plan{Events: canon}, want)
			}
		}
	})
}
