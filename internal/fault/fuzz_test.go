package fault_test

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// FuzzFaultPlan fuzzes the plan DSL end to end: any string the parser
// accepts must render back to a stable canonical form (String/ParsePlan
// round-trip), and — when its targets exist in the pool — driving a full
// scheduler session with it must complete with zero audit violations, no
// matter how adversarial the event sequence (double failures, recoveries of
// healthy nodes, overlapping revocations, events at extreme times).
func FuzzFaultPlan(f *testing.F) {
	f.Add("fail@300:n3;recover@600:n3;revoke@450:n2:500-700")
	f.Add("fail@0:n1;fail@0:n1;recover@0:n1;recover@0:n1")
	f.Add("revoke@100:n1:0-9000000000000000000;revoke@100:n1:0-9000000000000000000")
	f.Add("fail@150:n1;fail@150:n2;fail@150:n3;recover@300:n2")
	f.Add("revoke@1:n4:2-3; fail@2:n4 ;;recover@9223372036854775807:n4")
	f.Fuzz(func(t *testing.T, text string) {
		plan, err := fault.ParsePlan(text)
		if err != nil {
			return // malformed input is the parser's to reject, not a bug
		}
		canon := plan.String()
		back, err := fault.ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if again := back.String(); again != canon {
			t.Fatalf("round trip unstable:\n first: %s\nsecond: %s", canon, again)
		}

		svc := fuzzService(t)
		if plan.Validate(svc.Scheduler().Grid().Pool()) != nil {
			return // targets outside the pool; nothing to inject
		}
		var b strings.Builder
		sess, err := fault.NewSession(svc, plan, &b)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(5); err != nil {
			t.Fatalf("plan %q: %v\ntranscript:\n%s", canon, err, b.String())
		}
		if v := sess.Audit().Violations(); len(v) > 0 {
			t.Fatalf("plan %q: audit violations %v", canon, v)
		}
	})
}

// fuzzService builds a small fixed scenario (4 nodes n1..n4, 3 jobs, retry
// policy with ladder and deadline) for the fuzzer to batter with plans.
func fuzzService(t *testing.T) *metasched.Service {
	t.Helper()
	grid, err := gridsim.New(testPool(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := metasched.New(metasched.Config{
		Algorithm:        alloc.ALP{},
		Horizon:          800,
		Step:             100,
		MaxPostponements: 4,
		Retry: &metasched.RetryPolicy{
			MaxAttempts:      1,
			BackoffBase:      50,
			BackoffFactor:    2,
			PriceRelaxFactor: 1.5,
			MaxRelaxations:   1,
			JobDeadline:      600,
		},
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alpha", "beta", "gamma"} {
		err := sched.Submit(&job.Job{
			Name: name,
			Request: job.ResourceRequest{
				Nodes:          1 + i%2,
				Time:           sim.Duration(60 + 20*i),
				MinPerformance: 1,
				MaxPrice:       40,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}
