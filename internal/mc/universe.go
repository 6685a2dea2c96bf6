package mc

import (
	"fmt"
	"slices"

	"ecosched/internal/alloc"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// NodeSpec describes one node of a model-checking universe. Specs are
// templates: every replay builds a fresh pool from them, so instances never
// share mutable state.
type NodeSpec struct {
	Name        string
	Performance float64
	Price       sim.Money
	Domain      string
}

// JobSpec describes one job of the universe. Jobs are identified by index;
// each may be submitted at most once per trace.
type JobSpec struct {
	Name     string
	Nodes    int
	Time     sim.Duration
	MaxPrice sim.Money
}

// Universe is the finite world the explorer enumerates: the node pool, the
// job population, the scheduler configuration, and the one revocation span
// the revoke action uses. Everything is deterministic — no RNG, no local
// arrival load — so a trace fully determines the reached state.
type Universe struct {
	Nodes []NodeSpec
	Jobs  []JobSpec
	// Horizon and Step are the scheduler's look-ahead and clock advance.
	Horizon, Step sim.Duration
	// MaxPostponements bounds how long a job may ride the queue, which in
	// turn bounds the fault-free drain the liveness check runs.
	MaxPostponements int
	// Retry governs cancelled jobs; bounded attempts keep liveness finite.
	Retry *metasched.RetryPolicy
	// RevokeSpan is the interval every revoke action reclaims.
	RevokeSpan sim.Interval
	// Shards federates the universe's grid into this many domains
	// (metasched.Config.Shards); 0 or 1 keeps the single-domain world. The
	// schedules are byte-identical either way, so a sharded universe
	// explores the same state space while the auditor additionally checks
	// every shard store's coherence across fail/recover/revoke
	// interleavings that cross shard boundaries.
	Shards int
}

// Tiny is the smallest interesting universe: two nodes in two domains, two
// jobs. It exhausts completely at moderate depth, so tests can sweep it
// without bounds kicking in.
func Tiny() *Universe {
	return &Universe{
		Nodes: []NodeSpec{
			{Name: "n1", Performance: 1, Price: 2, Domain: "d0"},
			{Name: "n2", Performance: 1, Price: 3, Domain: "d1"},
		},
		Jobs: []JobSpec{
			{Name: "j1", Nodes: 1, Time: 40, MaxPrice: 10},
			{Name: "j2", Nodes: 1, Time: 60, MaxPrice: 10},
		},
		Horizon:          200,
		Step:             50,
		MaxPostponements: 3,
		Retry: &metasched.RetryPolicy{
			MaxAttempts: 1,
			BackoffBase: 50,
			BackoffMax:  50,
		},
		RevokeSpan: sim.Interval{Start: 40, End: 120},
	}
}

// Default is the CI universe: three nodes across two domains and three jobs
// including a two-node co-allocation, the smallest population where a
// failure can strand half of a parallel window.
func Default() *Universe {
	u := Tiny()
	u.Nodes = append(u.Nodes, NodeSpec{Name: "n3", Performance: 2, Price: 4, Domain: "d1"})
	u.Jobs = append(u.Jobs, JobSpec{Name: "j3", Nodes: 2, Time: 30, MaxPrice: 10})
	return u
}

// TwoShard is the Default universe federated into two shards: the canonical
// label hash splits {n1, n3} from {n2}, so the two-node co-allocation job j3
// must combine candidates across the shard boundary, and a failure or
// revocation on either side exercises one shard's store while the other's
// must stay untouched.
func TwoShard() *Universe {
	u := Default()
	u.Shards = 2
	return u
}

// Validate checks the universe is well-formed and small enough for the
// bitmask bookkeeping the explorer uses.
func (u *Universe) Validate() error {
	if len(u.Nodes) == 0 || len(u.Nodes) > 8 {
		return fmt.Errorf("mc: universe needs 1..8 nodes, has %d", len(u.Nodes))
	}
	if len(u.Jobs) == 0 || len(u.Jobs) > 8 {
		return fmt.Errorf("mc: universe needs 1..8 jobs, has %d", len(u.Jobs))
	}
	if u.Step <= 0 || u.Horizon <= 0 {
		return fmt.Errorf("mc: universe needs positive step and horizon")
	}
	// Every event the explorer can inject must be a valid fault.Event.
	for i := range u.Nodes {
		if err := u.revoke(i).Event.Validate(); err != nil {
			return fmt.Errorf("mc: universe: %w", err)
		}
	}
	for j := range u.Jobs {
		if err := u.submit(j).Event.Validate(); err != nil {
			return fmt.Errorf("mc: universe: %w", err)
		}
	}
	if u.Shards < 0 {
		return fmt.Errorf("mc: negative shard count %d", u.Shards)
	}
	return nil
}

// pool builds a fresh node pool from the specs.
func (u *Universe) pool() (*resource.Pool, error) {
	nodes := make([]*resource.Node, len(u.Nodes))
	for i, spec := range u.Nodes {
		nodes[i] = &resource.Node{
			Name:        spec.Name,
			Performance: spec.Performance,
			Price:       spec.Price,
			Domain:      spec.Domain,
		}
	}
	return resource.NewPool(nodes)
}

// jobIndex returns the index of the job named name, or -1.
func (u *Universe) jobIndex(name string) int {
	return slices.IndexFunc(u.Jobs, func(j JobSpec) bool { return j.Name == name })
}

// nodeIndex returns the index of the node labelled name, or -1.
func (u *Universe) nodeIndex(name string) int {
	return slices.IndexFunc(u.Nodes, func(n NodeSpec) bool { return n.Name == name })
}

// buildJob materializes a fresh job for submission; each replay gets its
// own copies because the retry ladder may mutate a job's request in place.
func (u *Universe) buildJob(i int) *job.Job {
	spec := u.Jobs[i]
	return &job.Job{Name: spec.Name, Request: job.ResourceRequest{
		Nodes:          spec.Nodes,
		Time:           spec.Time,
		MinPerformance: 1,
		MaxPrice:       spec.MaxPrice,
	}}
}

// config assembles the scheduler configuration all replays share.
func (u *Universe) config() metasched.Config {
	return metasched.Config{
		Algorithm:        alloc.ALP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          u.Horizon,
		Step:             u.Step,
		MaxPostponements: u.MaxPostponements,
		Retry:            u.Retry,
		Shards:           u.Shards,
	}
}
