package durable_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/codec"
	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/mc"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// durableFactory rebuilds the pristine pre-journal service for one scenario:
// a fixed 6-node, 4-domain pool, a seeded owner-local arrival stream, and a
// full retry policy, under the given algorithm and shard count. Recovery
// calls this exactly as the original session did — configuration comes from
// code, state from the journal.
func durableFactory(seed uint64, algo alloc.Algorithm, shards int) durable.Factory {
	return func() (*metasched.Service, error) {
		var nodes []*resource.Node
		for i := 0; i < 6; i++ {
			nodes = append(nodes, &resource.Node{
				Name:        fmt.Sprintf("n%d", i+1),
				Performance: 1 + float64(i%3)*0.5,
				Price:       sim.Money(1 + float64(i%4)*0.75),
				Domain:      fmt.Sprintf("d%d", i%4),
			})
		}
		pool, err := resource.NewPool(nodes)
		if err != nil {
			return nil, err
		}
		grid, err := gridsim.New(pool)
		if err != nil {
			return nil, err
		}
		cfg := metasched.Config{
			Algorithm:        algo,
			Policy:           metasched.MinimizeTime,
			Horizon:          600,
			Step:             60,
			MaxBatch:         4,
			MaxPostponements: 4,
			Shards:           shards,
			Retry: &metasched.RetryPolicy{
				MaxAttempts:      2,
				BackoffBase:      40,
				BackoffFactor:    2,
				BackoffMax:       200,
				JitterFrac:       0.2,
				JitterSeed:       seed,
				PriceRelaxFactor: 1.3,
				MaxRelaxations:   2,
			},
			LocalArrivals: &metasched.LocalArrivals{
				Load: gridsim.LocalLoad{MeanGap: 150, DurMin: 20, DurMax: 50},
				RNG:  sim.NewRNG(seed ^ 0xa5a5_5a5a),
			},
		}
		sched, err := metasched.New(cfg, grid)
		if err != nil {
			return nil, err
		}
		return metasched.NewService(sched, metasched.ServiceConfig{})
	}
}

// genEvents derives the deterministic event script for a seed: twelve
// rounds, each submitting up to one job and rolling one environment event
// (node failure, recovery, interval revocation) before the round, plus three
// trailing rounds so backoff-gated requeues get a chance to resolve.
func genEvents(seed uint64) []fault.Event {
	rng := sim.NewRNG(seed*0x9e3779b9 + 1)
	var events []fault.Event
	failed := map[string]bool{}
	healthy := func() string {
		for tries := 0; tries < 12; tries++ {
			n := fmt.Sprintf("n%d", rng.Uint64()%6+1)
			if !failed[n] {
				return n
			}
		}
		return ""
	}
	// anyFailed picks the lowest-named failed node, so which node recovers
	// follows the seed, not Go's map order.
	anyFailed := func() string {
		first := ""
		for n := range failed {
			if first == "" || n < first {
				first = n
			}
		}
		return first
	}
	jobs := 0
	for round := 0; round < 12; round++ {
		now := sim.Time(60 * round)
		if round < 2 || rng.Uint64()%10 < 7 {
			jobs++
			j := &job.Job{Name: fmt.Sprintf("j%02d", jobs)}
			j.Request.Nodes = int(rng.Uint64()%2) + 1
			j.Request.Time = sim.Duration(30 + rng.Uint64()%40)
			j.Priority = int(rng.Uint64()%3) + 1
			j.Request.MinPerformance = 1
			j.Request.MaxPrice = sim.Money(5 + float64(rng.Uint64()%4))
			events = append(events, fault.Event{At: now, Kind: fault.Submit, Job: j})
		}
		switch rng.Uint64() % 10 {
		case 0, 1:
			if n := healthy(); n != "" && len(failed) < 3 {
				failed[n] = true
				events = append(events, fault.Event{At: now, Kind: fault.Fail, Node: n})
			}
		case 2, 3:
			if n := anyFailed(); n != "" {
				delete(failed, n)
				events = append(events, fault.Event{At: now, Kind: fault.Recover, Node: n})
			}
		case 4, 5:
			if n := healthy(); n != "" {
				start := now.Add(sim.Duration(30 + rng.Uint64()%240))
				events = append(events, fault.Event{At: now, Kind: fault.Revoke, Node: n,
					Span: sim.Interval{Start: start, End: start.Add(sim.Duration(30 + rng.Uint64()%60))}})
			}
		}
		events = append(events, fault.Event{At: now, Kind: fault.Round})
	}
	for i := 0; i < 3; i++ {
		events = append(events, fault.Event{At: sim.Time(60 * (12 + i)), Kind: fault.Round})
	}
	return events
}

// issue applies one event to the durable service and renders its complete
// outcome — return values, errors, and for rounds the full report — as one
// transcript line. The continuation half of the crash differential compares
// these lines byte for byte. A submit hands over a copy of the job: the
// retry ladder mutates requests in place, and every issue must start from
// the script's job.
func issue(ds *durable.Service, e fault.Event) string {
	if e.Kind == fault.Submit {
		j := *e.Job
		e.Job = &j
	}
	requeued, rep, err := fault.Dispatch(ds, e)
	line := fmt.Sprintf("%v requeued=%v err=%v", e, requeued, err)
	if rep == nil {
		return line
	}
	var placed []string
	for _, p := range rep.Placed {
		placed = append(placed, p.Job.Name)
	}
	return fmt.Sprintf("%s it=%d batch=%d placed=%v postponed=%v dropped=%v T=%v C=%v queue=%d",
		line, rep.Iteration, rep.BatchSize, placed, rep.Postponed, rep.Dropped,
		rep.PlanTime, rep.PlanCost, ds.Scheduler().QueueLength())
}

// reference runs the full event script once under the journal and
// captures everything the crash sweep needs: the per-event outcome lines,
// the state hash at every record boundary, the record count after each
// event, the final journal bytes, and a snapshot of the checkpoint file as
// of each boundary (what a crash at that point would find on disk).
type reference struct {
	events    []fault.Event
	outcomes  []string
	hashes    []uint64 // hashes[r] = state hash after r records
	recordEnd []int    // recordEnd[i] = records on disk after event i
	journal   []byte
	cpAt      [][]byte // cpAt[r] = checkpoint bytes as of r records (nil = absent)
}

func runReference(t *testing.T, dir string, factory durable.Factory, events []fault.Event, checkpointEvery int) *reference {
	t.Helper()
	opts := durable.Options{
		JournalPath:     filepath.Join(dir, "ref.journal"),
		CheckpointPath:  filepath.Join(dir, "ref.checkpoint"),
		CheckpointEvery: checkpointEvery,
	}
	svc, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := durable.New(svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ref := &reference{events: events}
	ref.hashes = append(ref.hashes, durable.StateHash(svc))
	ref.cpAt = append(ref.cpAt, nil)
	records := 0
	for _, c := range events {
		ref.outcomes = append(ref.outcomes, issue(ds, c))
		data, err := os.ReadFile(opts.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		payloads, _, _ := codec.ScanFrames(data[len(codec.JournalMagic):])
		if len(payloads) > records {
			if len(payloads) != records+1 {
				t.Fatalf("event appended %d records, want exactly 1", len(payloads)-records)
			}
			records = len(payloads)
			ref.hashes = append(ref.hashes, durable.StateHash(svc))
			cp, err := os.ReadFile(opts.CheckpointPath)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			ref.cpAt = append(ref.cpAt, cp)
		}
		ref.recordEnd = append(ref.recordEnd, records)
	}
	ref.journal, err = os.ReadFile(opts.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// crashAtEveryRecord truncates the reference journal after every record
// boundary, recovers, and checks byte-identity twice over: the recovered
// canonical state hash matches the uncrashed run at that boundary, and
// re-issuing the remaining events reproduces the remaining transcript and
// the final state exactly.
func crashAtEveryRecord(t *testing.T, dir string, factory durable.Factory, ref *reference, checkpointEvery int) {
	t.Helper()
	_, ends, _ := codec.ScanFrames(ref.journal[len(codec.JournalMagic):])
	total := len(ends)
	for r := 0; r <= total; r++ {
		cut := len(codec.JournalMagic)
		if r > 0 {
			cut += ends[r-1]
		}
		jp := filepath.Join(dir, fmt.Sprintf("crash-%d.journal", r))
		cpPath := filepath.Join(dir, fmt.Sprintf("crash-%d.checkpoint", r))
		if err := os.WriteFile(jp, ref.journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if len(ref.cpAt[r]) > 0 {
			if err := os.WriteFile(cpPath, ref.cpAt[r], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := durable.Options{JournalPath: jp, CheckpointPath: cpPath, CheckpointEvery: checkpointEvery}
		ds, rep, err := durable.Recover(opts, factory)
		if err != nil {
			t.Fatalf("recover at record %d/%d: %v", r, total, err)
		}
		if got := durable.StateHash(ds.Unwrap()); got != ref.hashes[r] {
			t.Fatalf("record %d/%d: recovered state hash %x, uncrashed run had %x", r, total, got, ref.hashes[r])
		}
		if rep.RecordsScanned != r {
			t.Fatalf("record %d: scanned %d records", r, rep.RecordsScanned)
		}
		if len(ref.cpAt[r]) > 0 && !rep.CheckpointUsed {
			t.Fatalf("record %d: checkpoint on disk but not used", r)
		}
		if rep.CheckpointUsed && rep.RecordsReplayed > rep.RecordsScanned {
			t.Fatalf("record %d: replayed %d of %d records", r, rep.RecordsReplayed, rep.RecordsScanned)
		}

		// Continue the session: first event not fully journaled onward.
		resume := len(ref.events)
		for i, end := range ref.recordEnd {
			if end > r {
				resume = i
				break
			}
		}
		for i := resume; i < len(ref.events); i++ {
			got := issue(ds, ref.events[i])
			if got != ref.outcomes[i] {
				t.Fatalf("record %d, resumed event %d diverged:\n got %s\nwant %s", r, i, got, ref.outcomes[i])
			}
		}
		if got := durable.StateHash(ds.Unwrap()); got != ref.hashes[total] {
			t.Fatalf("record %d: final state hash %x after resume, uncrashed run had %x", r, got, ref.hashes[total])
		}
		ds.Close()
		os.Remove(jp)
		os.Remove(cpPath)
	}
}

// TestCrashInjectionDifferential is the acceptance sweep: 20 seeds across
// {ALP, AMP} × shards {1, 4}, journal truncated after every record, recovery
// plus continuation proven byte-identical to the uncrashed session. Even
// seeds run with checkpoints every 2 rounds (recovery restores the snapshot
// and replays the suffix), odd seeds replay the full journal.
func TestCrashInjectionDifferential(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if testing.Short() {
		seeds = []uint64{2, 3, 11}
	}
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{{"ALP", alloc.ALP{}}, {"AMP", alloc.AMP{}}}
	for _, shards := range []int{1, 4} {
		for _, a := range algos {
			t.Run(fmt.Sprintf("%s/shards=%d", a.name, shards), func(t *testing.T) {
				for _, seed := range seeds {
					checkpointEvery := 0
					if seed%2 == 0 {
						checkpointEvery = 2
					}
					dir := t.TempDir()
					factory := durableFactory(seed, a.algo, shards)
					ref := runReference(t, dir, factory, genEvents(seed), checkpointEvery)
					crashAtEveryRecord(t, dir, factory, ref, checkpointEvery)
				}
			})
		}
	}
}

// TestSeededScriptsReproduce runs each seeded script generator the
// differentials and the model checker feed on twice in one process and
// requires the same script both times: genEvents (the crash and parallel
// differentials), fault.RandomPlan (chaos runs) and the counterexample
// script of a model-checker sweep over each universe. A generator whose
// output follows Go's map order fails here, while a differential it feeds
// passes on a different script each run.
func TestSeededScriptsReproduce(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "n1", Performance: 1, Price: 1}, {Name: "n2", Performance: 2, Price: 2},
		{Name: "n3", Performance: 1, Price: 2}, {Name: "n4", Performance: 2, Price: 1},
	})
	for seed := uint64(1); seed <= 20; seed++ {
		if a, b := genEvents(seed), genEvents(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("genEvents(%d) differs between calls:\n%v\n%v", seed, a, b)
		}
		spec := fault.RandomSpec{Seed: seed, Horizon: 3000, Step: 150, Rate: 0.4, RevokeFraction: 0.3, Outage: 300}
		a, errA := fault.RandomPlan(pool, spec)
		b, errB := fault.RandomPlan(pool, spec)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a.String() != b.String() {
			t.Errorf("RandomPlan(seed %d) differs between calls:\n%v\n%v", seed, a, b)
		}
	}
	for name, universe := range map[string]func() *mc.Universe{"tiny": mc.Tiny, "2shard": mc.TwoShard, "default": mc.Default} {
		var scripts [2]string
		for i := range scripts {
			res, err := mc.Explore(universe(), mc.Options{MaxDepth: 3, MaxStates: 2000, Mutation: mc.MutLossyCrash})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cex == nil {
				t.Fatalf("%s: the lossy-crash sweep found no counterexample", name)
			}
			scripts[i] = fmt.Sprintf("%d states, %d transitions\n%s", res.States, res.Transitions, res.Cex.Script())
		}
		if scripts[0] != scripts[1] {
			t.Errorf("%s: model-checker sweep differs between runs:\n%s\n---\n%s", name, scripts[0], scripts[1])
		}
	}
}

// TestTornWriteByteSweep truncates one scenario's journal at every byte
// offset: recovery must land exactly on the last complete record boundary —
// the torn tail is dropped, never loaded partially, and the recovered state
// hash matches the uncrashed run at that boundary.
func TestTornWriteByteSweep(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	factory := durableFactory(seed, alloc.ALP{}, 1)
	events := genEvents(seed)[:8]
	ref := runReference(t, dir, factory, events, 0)
	_, ends, _ := codec.ScanFrames(ref.journal[len(codec.JournalMagic):])
	stride := 1
	if testing.Short() {
		stride = 7
	}
	jp := filepath.Join(dir, "torn.journal")
	for cut := len(codec.JournalMagic); cut <= len(ref.journal); cut += stride {
		if err := os.WriteFile(jp, ref.journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords := 0
		for _, end := range ends {
			if len(codec.JournalMagic)+end <= cut {
				wantRecords++
			}
		}
		ds, rep, err := durable.Recover(durable.Options{JournalPath: jp}, factory)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.RecordsScanned != wantRecords {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, rep.RecordsScanned, wantRecords)
		}
		if got := durable.StateHash(ds.Unwrap()); got != ref.hashes[wantRecords] {
			t.Fatalf("cut %d: state hash %x, uncrashed run had %x at record %d", cut, got, ref.hashes[wantRecords], wantRecords)
		}
		wantTorn := int64(cut - len(codec.JournalMagic))
		if wantRecords > 0 {
			wantTorn = int64(cut - len(codec.JournalMagic) - ends[wantRecords-1])
		}
		if rep.TornBytesDropped != wantTorn {
			t.Fatalf("cut %d: dropped %d torn bytes, want %d", cut, rep.TornBytesDropped, wantTorn)
		}
		ds.Close()
	}
}

// TestStateHashCoversArrivalsRNG: two services that differ only in the
// local-arrivals generator's state draw different owner-local tasks next,
// so their futures differ and so must their state hashes.
func TestStateHashCoversArrivalsRNG(t *testing.T) {
	hash := func(rng uint64) uint64 {
		svc, err := durableFactory(1, alloc.ALP{}, 1)()
		if err != nil {
			t.Fatal(err)
		}
		st := svc.Scheduler().ExportState()
		*st.ArrivalsRNG = rng
		if err := svc.Scheduler().RestoreState(st); err != nil {
			t.Fatal(err)
		}
		return durable.StateHash(svc)
	}
	if h1, h2 := hash(1), hash(2); h1 == h2 {
		t.Errorf("arrivals RNG states 1 and 2 hash alike (%016x)", h1)
	}
}
