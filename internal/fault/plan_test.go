package fault_test

import (
	"fmt"
	"testing"

	"ecosched/internal/fault"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

func testPool(t *testing.T, n int) *resource.Pool {
	t.Helper()
	nodes := make([]*resource.Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: 1 + float64(i%3),
			Price:       sim.Money(2 + i%4),
			Domain:      fmt.Sprintf("d%d", i%3),
		})
	}
	return resource.MustNewPool(nodes)
}

// TestPlanRoundTrip pins the DSL: ParsePlan(p.String()) reproduces the plan
// exactly, including time-sorted normalization of out-of-order input, and
// every constructed event NewPlan accepts renders to text ParsePlan reads
// back — NewPlan rejects what the text form cannot carry.
func TestPlanRoundTrip(t *testing.T) {
	for _, c := range []struct {
		e  fault.Event
		ok bool
	}{
		{fault.Event{At: 3, Kind: fault.Revoke, Node: "n1", Span: sim.Interval{Start: 0, End: 7}}, true},
		{fault.Event{At: 0, Kind: fault.Fail, Node: "rack-2/n1"}, true},
		{fault.Event{At: 3, Kind: fault.Revoke, Node: "n1", Span: sim.Interval{Start: -5, End: 7}}, false},
		{fault.Event{At: 3, Kind: fault.Fail, Node: "n1:7"}, false},
		{fault.Event{At: 3, Kind: fault.Recover, Node: "n1;fail@4:n2"}, false},
		{fault.Event{At: 3, Kind: fault.Fail, Node: "n1 "}, false},
		{fault.Event{At: 3, Kind: fault.Fail, Node: "n1", Span: sim.Interval{Start: 5, End: 7}}, false},
		{fault.Event{At: fault.Untimed, Kind: fault.Recover, Node: "n1"}, true},
		{fault.Event{At: -2, Kind: fault.Fail, Node: "n1"}, false},
		{fault.Event{At: 150, Kind: fault.Round}, true},
		{fault.Event{At: 150, Kind: fault.Round, Node: "n1"}, false},
		{fault.Event{At: 0, Kind: fault.Submit, Job: &job.Job{Name: "j1"}}, true},
		{fault.Event{At: 0, Kind: fault.Submit}, false},
		{fault.Event{At: 0, Kind: fault.Submit, Job: &job.Job{Name: "j:1"}}, false},
		{fault.Event{At: 0, Kind: fault.Submit, Node: "n1", Job: &job.Job{Name: "j1"}}, false},
		{fault.Event{At: 0, Kind: fault.Fail, Node: "n1", Job: &job.Job{Name: "j1"}}, false},
		{fault.Event{At: 0, Kind: fault.NumKinds, Node: "n1"}, false},
	} {
		p, err := fault.NewPlan(c.e)
		if (err == nil) != c.ok {
			t.Errorf("NewPlan(%#v): err = %v, want accepted=%t", c.e, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		back, err := fault.ParsePlan(p.String())
		if err == nil && back.Len() == 1 && back.Events[0].Job != nil && back.Events[0].Job.Name == c.e.Job.Name {
			back.Events[0].Job = c.e.Job // text carries the job's name only
		}
		if err != nil || back.Len() != 1 || back.Events[0] != c.e {
			t.Errorf("constructed %#v renders %q, which parses back to %v (err %v)", c.e, p.String(), back, err)
		}
	}

	const text = "recover@600:n3; fail@300:n3;revoke@450:n5:500-700;;fail@450:n1"
	p, err := fault.ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Event{
		{At: 300, Kind: fault.Fail, Node: "n3"},
		{At: 450, Kind: fault.Revoke, Node: "n5", Span: sim.Interval{Start: 500, End: 700}},
		{At: 450, Kind: fault.Fail, Node: "n1"},
		{At: 600, Kind: fault.Recover, Node: "n3"},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d: %v", len(p.Events), len(want), p.Events)
	}
	for i, e := range want {
		if p.Events[i] != e {
			t.Errorf("event %d = %v, want %v", i, p.Events[i], e)
		}
	}
	rendered := p.String()
	back, err := fault.ParsePlan(rendered)
	if err != nil {
		t.Fatalf("reparsing %q: %v", rendered, err)
	}
	if back.String() != rendered {
		t.Fatalf("round trip diverged:\n first: %s\nsecond: %s", rendered, back.String())
	}
}

// TestParsePlanErrors pins the parser's rejection of malformed entries.
func TestParsePlanErrors(t *testing.T) {
	cases := []string{
		"fail300:n1",            // missing '@'
		"melt@300:n1",           // unknown kind
		"fail@xx:n1",            // bad time
		"fail@300",              // missing node
		"fail@-5:n1",            // negative time
		"fail@300:",             // empty node
		"fail@300:n1:10-20",     // span on a non-revoke event
		"revoke@300:n1",         // revoke without span
		"revoke@300:n1:10",      // span missing '-'
		"revoke@300:n1:xx-20",   // bad span start
		"revoke@300:n1:10-yy",   // bad span end
		"revoke@300:n1:200-100", // inverted span
		"revoke@300:n1:50-50",   // empty span
		"round:n1",              // round names no node
		"round@xx",              // bad time
		"submit@0",              // missing job
		"submit@0:j1:2",         // job name with ':'
		"fail@-1:n1",            // negative time, not the untimed mark
	}
	for _, c := range cases {
		if _, err := fault.ParsePlan(c); err == nil {
			t.Errorf("ParsePlan(%q) accepted malformed input", c)
		}
	}
	empty, err := fault.ParsePlan("")
	if err != nil || empty.Len() != 0 {
		t.Fatalf("ParsePlan(\"\") = %v events, err %v; want an empty plan", empty.Len(), err)
	}
}

// TestEventTextForm pins the one text form of every kind, timed and
// untimed, and that a submit read from text cannot run: it carries its job's
// name only.
func TestEventTextForm(t *testing.T) {
	for text, want := range map[string]fault.Event{
		"submit@0:j1":        {At: 0, Kind: fault.Submit, Job: &job.Job{Name: "j1"}},
		"submit:j1":          {At: fault.Untimed, Kind: fault.Submit, Job: &job.Job{Name: "j1"}},
		"round@150":          {At: 150, Kind: fault.Round},
		"round":              {At: fault.Untimed, Kind: fault.Round},
		"fail:n3":            {At: fault.Untimed, Kind: fault.Fail, Node: "n3"},
		"recover@600:n3":     {At: 600, Kind: fault.Recover, Node: "n3"},
		"revoke:n5:500-700":  {At: fault.Untimed, Kind: fault.Revoke, Node: "n5", Span: sim.Interval{Start: 500, End: 700}},
		"revoke@9:n5:10-700": {At: 9, Kind: fault.Revoke, Node: "n5", Span: sim.Interval{Start: 10, End: 700}},
	} {
		e, err := fault.ParseEvent(text)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", text, err)
		}
		if e.String() != text {
			t.Errorf("ParseEvent(%q) renders back as %q", text, e)
		}
		if (e.Job == nil) != (want.Job == nil) || e.Job != nil && e.Job.Name != want.Job.Name {
			t.Errorf("ParseEvent(%q) job = %v, want %v", text, e.Job, want.Job)
		}
		e.Job, want.Job = nil, nil
		if e != want {
			t.Errorf("ParseEvent(%q) = %#v, want %#v", text, e, want)
		}
	}

	pool := testPool(t, 3)
	named, err := fault.ParsePlan("submit@0:j1;round@0")
	if err != nil {
		t.Fatal(err)
	}
	if err := named.Validate(pool); err == nil {
		t.Fatal("plan submitting a name-only job passed pool validation")
	}
	full, err := fault.NewPlan(fault.Event{Kind: fault.Submit, Job: &job.Job{Name: "j1",
		Request: job.ResourceRequest{Nodes: 1, Time: 10, MinPerformance: 1, MaxPrice: 5}}},
		fault.Event{Kind: fault.Round})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(pool); err != nil {
		t.Fatalf("plan submitting a complete job rejected: %v", err)
	}
}

// TestPlanValidatePool checks the pool-level validation CLI drivers rely on.
func TestPlanValidatePool(t *testing.T) {
	pool := testPool(t, 3)
	ok, err := fault.ParsePlan("fail@100:n2;recover@200:n2")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(pool); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad, err := fault.ParsePlan("fail@100:ghost")
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(pool); err == nil {
		t.Fatal("plan targeting an unknown node passed pool validation")
	}
}

// TestRandomPlan checks the seeded generator: deterministic per seed,
// rate-monotone, every event valid against the pool and round-trippable
// through the DSL.
func TestRandomPlan(t *testing.T) {
	pool := testPool(t, 8)
	spec := fault.RandomSpec{
		Seed: 11, Horizon: 3000, Step: 150,
		Rate: 0.5, RevokeFraction: 0.3, Outage: 450,
	}
	p, err := fault.RandomPlan(pool, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 {
		t.Fatal("rate-0.5 plan over 19 boundaries generated no events")
	}
	if err := p.Validate(pool); err != nil {
		t.Fatalf("random plan failed pool validation: %v", err)
	}
	back, err := fault.ParsePlan(p.String())
	if err != nil || back.String() != p.String() {
		t.Fatalf("random plan does not round-trip through the DSL: %v", err)
	}
	again, err := fault.RandomPlan(pool, spec)
	if err != nil || again.String() != p.String() {
		t.Fatalf("same spec produced a different plan (err %v)", err)
	}

	quiet, err := fault.RandomPlan(pool, fault.RandomSpec{Seed: 11, Horizon: 3000, Step: 150})
	if err != nil || quiet.Len() != 0 {
		t.Fatalf("rate-0 plan has %d events (err %v), want none", quiet.Len(), err)
	}
	if _, err := fault.RandomPlan(pool, fault.RandomSpec{Seed: 1, Horizon: 0, Step: 150}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := fault.RandomPlan(pool, fault.RandomSpec{Seed: 1, Horizon: 100, Step: 10, Rate: 1.5}); err == nil {
		t.Fatal("rate above 1 accepted")
	}
}
