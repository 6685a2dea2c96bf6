package durable

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"ecosched/internal/codec"
	"ecosched/internal/fault"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
)

// Options parameterizes the durable wrapper.
type Options struct {
	// JournalPath is the write-ahead journal file. Required.
	JournalPath string
	// CheckpointPath is the checkpoint file; empty disables checkpoints and
	// recovery replays the full journal.
	CheckpointPath string
	// CheckpointEvery writes a checkpoint after every N completed rounds;
	// 0 disables automatic checkpoints (Checkpoint can still be called).
	CheckpointEvery int
	// Sync fsyncs the journal after every append, and each checkpoint's
	// temp file before the rename that publishes it and the checkpoint's
	// directory after. Off by default: the crash-injection harness models
	// crashes by truncating bytes, which is exactly the guarantee the frame
	// CRCs defend, and real deployments can opt in for power-loss safety.
	Sync bool
	// Metrics receives the metasched/durable/* instruments; nil disables
	// observability with zero allocation on the hot path.
	Metrics *metrics.Registry
}

func (o Options) validate() error {
	if o.JournalPath == "" {
		return fmt.Errorf("durable: no journal path")
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("durable: negative checkpoint cadence %d", o.CheckpointEvery)
	}
	if o.CheckpointEvery > 0 && o.CheckpointPath == "" {
		return fmt.Errorf("durable: checkpoint cadence %d without a checkpoint path", o.CheckpointEvery)
	}
	return nil
}

// Service wraps a metasched.Service so every event it applies is journaled
// after it succeeds. It exposes the same driving surface as the wrapped
// service (fault.Driver), so chaos sessions and the CLI run unmodified
// against it.
type Service struct {
	svc  *metasched.Service
	j    *Journal
	opts Options
	m    *durableMetrics
	// rounds counts completed rounds (checkpoint cadence); survives
	// recovery via the checkpoint's Rounds field plus replayed rounds.
	rounds int
	// appliedLive is the journal-derived ledger of jobs holding applied
	// plans: round records add their placed jobs, failure and revocation
	// records remove their requeued and dropped jobs. The recovery-coherence invariant pins
	// it against the scheduler's own placed set.
	appliedLive map[string]bool
	// roundRec carries a round event's record through fault.Dispatch to
	// round and back: the journaled record in on replay, the record a
	// live round wrote out.
	roundRec *codec.RoundRecord
}

// New wraps a freshly built service with a new (or empty) journal. A journal
// that already holds records is history this service does not have — New
// rejects it and directs the caller to Recover, which replays it.
func New(svc *metasched.Service, opts Options) (*Service, error) {
	if svc == nil {
		return nil, fmt.Errorf("durable: nil service")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m := newDurableMetrics(opts.Metrics)
	j, payloads, _, err := OpenJournal(opts.JournalPath, opts.Sync, m)
	if err != nil {
		return nil, err
	}
	if len(payloads) > 0 {
		j.Close()
		return nil, fmt.Errorf("durable: journal %s holds %d records; use Recover to resume it",
			opts.JournalPath, len(payloads))
	}
	return &Service{svc: svc, j: j, opts: opts, m: m, appliedLive: map[string]bool{}}, nil
}

// Scheduler returns the wrapped scheduler.
func (ds *Service) Scheduler() *metasched.Scheduler { return ds.svc.Scheduler() }

// Unwrap returns the wrapped service.
func (ds *Service) Unwrap() *metasched.Service { return ds.svc }

// AppliedLive returns the journal-derived ledger of jobs holding applied
// plans, sorted — the reference side of the recovery-coherence invariant.
func (ds *Service) AppliedLive() []string {
	out := make([]string, 0, len(ds.appliedLive))
	for name := range ds.appliedLive {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close closes the journal. The wrapped service stays usable, but further
// transitions are no longer durable.
func (ds *Service) Close() error { return ds.j.Close() }

// Submit journals a job submission; see step.
func (ds *Service) Submit(j *job.Job) error {
	_, _, err := ds.step(fault.Event{Kind: fault.Submit, Job: j})
	return err
}

// HandleNodeFailure journals a node failure; see step.
func (ds *Service) HandleNodeFailure(nodeLabel string) ([]string, error) {
	requeued, _, err := ds.step(fault.Event{Kind: fault.Fail, Node: nodeLabel})
	return requeued, err
}

// HandleNodeRecovery journals a node recovery; see step.
func (ds *Service) HandleNodeRecovery(nodeLabel string) error {
	_, _, err := ds.step(fault.Event{Kind: fault.Recover, Node: nodeLabel})
	return err
}

// HandleRevocation journals an owner revocation; see step.
func (ds *Service) HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error) {
	requeued, _, err := ds.step(fault.Event{Kind: fault.Revoke, Node: nodeLabel, Span: span})
	return requeued, err
}

// Tick runs one full service round — the durable counterpart of
// metasched.Service.Tick — and journals it: the applied combination with its
// snapshot epoch, the windows rejected as stale, and the jobs placed. The
// record is written after the round completes, so a crash anywhere inside
// the round recovers to the pre-round state and the driver re-issues the
// tick; the round is deterministic, so the re-run lands on the same state
// the record would have described. Every CheckpointEvery rounds it then
// writes a checkpoint.
func (ds *Service) Tick() (*metasched.IterationReport, error) {
	_, rep, err := ds.step(fault.Event{Kind: fault.Round})
	if err != nil {
		return nil, err
	}
	if ds.opts.CheckpointEvery > 0 && ds.rounds%ds.opts.CheckpointEvery == 0 {
		if err := ds.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// step applies an event through the wrapped service at the current clock
// and journals it, stamped with that clock, together with its outcome, which
// replay cross-checks. A transition that fails is not journaled.
func (ds *Service) step(e fault.Event) ([]string, *metasched.IterationReport, error) {
	e.At = ds.svc.Scheduler().Grid().Now()
	rec := &codec.Record{Event: e}
	requeued, rep, err := ds.apply(rec, false)
	if err != nil {
		return nil, nil, err
	}
	if err := ds.j.Append(rec); err != nil {
		return nil, nil, err
	}
	return requeued, rep, nil
}

// apply runs a record's event through the wrapped service — fault.Dispatch
// picks the call — and settles the applied-live ledger: a round adds the
// jobs it placed, a failure or revocation retires the jobs it re-queued or
// newly dropped. Live, it fills in the record's outcome; on replay it checks
// the run reproduced the journaled one.
func (ds *Service) apply(rec *codec.Record, replay bool) ([]string, *metasched.IterationReport, error) {
	e := rec.Event
	// Only a failure or revocation cancels reservations, so only they can
	// drop a job; the others skip copying the drop ledger.
	cancels := e.Kind == fault.Fail || e.Kind == fault.Revoke
	var before map[string]string
	if cancels {
		before = ds.svc.Scheduler().DroppedJobs()
	}
	ds.roundRec = rec.Round
	requeued, rep, err := fault.Dispatch((*engine)(ds), e)
	rec.Round, ds.roundRec = ds.roundRec, nil
	if err != nil {
		return nil, nil, err
	}
	var dropped []string
	if cancels {
		dropped = newlyDropped(before, ds.svc.Scheduler().DroppedJobs())
		for _, name := range requeued {
			delete(ds.appliedLive, name)
		}
		for _, name := range dropped {
			delete(ds.appliedLive, name)
		}
	}
	switch {
	case !replay:
		rec.Requeued, rec.Dropped = requeued, dropped
	case !slices.Equal(rec.Requeued, requeued):
		return nil, nil, fmt.Errorf("journaled requeues %v, replay produced %v", rec.Requeued, requeued)
	case !slices.Equal(rec.Dropped, dropped):
		return nil, nil, fmt.Errorf("journaled drops %v, replay produced %v", rec.Dropped, dropped)
	}
	return requeued, rep, nil
}

// engine is the service a journaled event reaches through fault.Dispatch:
// the wrapped service, except that a round runs round. Viewing a *Service
// as one allocates nothing.
type engine Service

func (g *engine) Scheduler() *metasched.Scheduler { return g.svc.Scheduler() }
func (g *engine) Submit(j *job.Job) error         { return g.svc.Submit(j) }
func (g *engine) HandleNodeFailure(node string) ([]string, error) {
	return g.svc.HandleNodeFailure(node)
}
func (g *engine) HandleNodeRecovery(node string) error { return g.svc.HandleNodeRecovery(node) }
func (g *engine) HandleRevocation(node string, span sim.Interval) ([]string, error) {
	return g.svc.HandleRevocation(node, span)
}
func (g *engine) Tick() (*metasched.IterationReport, error) { return (*Service)(g).round() }

// round runs one scheduling round. Live (no journaled record in roundRec),
// it searches and leaves in roundRec the record of the plan it applied, the
// windows rejected as stale and the jobs placed. On replay it installs the
// journaled plan in place of the search (Plan's grid reads are pure, so
// skipping it cannot change state), drives the same serial applier, which
// re-validates every window via the grid's commit, and checks the round
// reproduced the journaled outcome.
func (ds *Service) round() (*metasched.IterationReport, error) {
	want := ds.roundRec
	r, err := ds.svc.BeginRound()
	if err != nil {
		return nil, err
	}
	if want == nil {
		err = r.Evaluate()
	} else if plan, perr := ds.journaledPlan(want); perr != nil {
		err = perr
	} else {
		err = r.InstallPlan(plan)
	}
	if err != nil {
		return nil, err
	}
	plan := r.Plan()
	if err := r.Apply(); err != nil {
		return nil, err
	}
	stale := r.StaleJobs()
	rep, err := r.Finish()
	if err != nil {
		return nil, err
	}
	rr := &codec.RoundRecord{Iteration: rep.Iteration, Stale: stale}
	if plan != nil {
		rr.Planned = true
		rr.Epoch = plan.Epoch
		rr.TotalTime = plan.TotalTime
		rr.TotalCost = plan.TotalCost
		for _, ch := range plan.Choices {
			rr.Choices = append(rr.Choices, codec.ChoiceRecord{Job: ch.Job.Name, Window: ch.Window})
		}
	}
	for _, p := range rep.Placed {
		rr.Placed = append(rr.Placed, p.Job.Name)
		ds.appliedLive[p.Job.Name] = true
	}
	switch {
	case want == nil:
		ds.roundRec = rr
	case !slices.Equal(want.Stale, rr.Stale):
		return nil, fmt.Errorf("journaled stale windows %v, replay produced %v", want.Stale, rr.Stale)
	case want.Iteration != rr.Iteration:
		return nil, fmt.Errorf("journaled iteration %d, replay ran %d", want.Iteration, rr.Iteration)
	case !slices.Equal(want.Placed, rr.Placed):
		return nil, fmt.Errorf("journaled placements %v, replay produced %v", want.Placed, rr.Placed)
	}
	ds.rounds++
	return rep, nil
}

// Checkpoint snapshots the complete canonical state — grid and scheduler —
// stamped with the journal position it corresponds to, and
// writes it atomically (temp file + rename), so a crash mid-checkpoint
// leaves the previous checkpoint intact. With Options.Sync the temp file is
// fsynced before the rename and the directory after it, so the published
// checkpoint also survives power loss.
func (ds *Service) Checkpoint() error {
	if ds.opts.CheckpointPath == "" {
		return fmt.Errorf("durable: no checkpoint path configured")
	}
	// The service export carries no state; it refuses an open round, whose
	// frozen batch and pending plan are not committed state.
	svcState, err := ds.svc.ExportState()
	if err != nil {
		return err
	}
	cp := &codec.Checkpoint{
		Seq:           ds.j.Seq(),
		JournalOffset: ds.j.Size(),
		Rounds:        ds.rounds,
		Grid:          ds.svc.Scheduler().Grid().ExportState(),
		Sched:         ds.svc.Scheduler().ExportState(),
		Service:       svcState,
	}
	data, err := codec.EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	if err := writeCheckpoint(ds.opts.CheckpointPath, data, ds.opts.Sync); err != nil {
		return err
	}
	ds.m.checkpointWritten()
	return nil
}

// writeCheckpoint writes data to path+".tmp" and renames it over path. With
// sync set it fsyncs the temp file before the rename and path's directory
// after it, so the rename cannot reach the disk ahead of the bytes it
// publishes, nor be lost itself.
func writeCheckpoint(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: publish checkpoint: %w", err)
	}
	if !sync {
		return nil
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("durable: sync checkpoint directory: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: sync checkpoint directory: %w", err)
	}
	return nil
}

// newlyDropped returns the names terminally dropped between two snapshots of
// the scheduler's drop ledger, sorted.
func newlyDropped(before, after map[string]string) []string {
	var out []string
	for name := range after {
		if _, ok := before[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// StateHash digests the service's complete canonical state — grid and
// scheduler — as FNV-64a. The crash-injection
// differential compares it between recovered and uncrashed runs; the CLI's
// recover subcommand prints it.
func StateHash(svc *metasched.Service) uint64 {
	var b strings.Builder
	svc.Scheduler().Grid().CanonicalState(&b)
	svc.Scheduler().CanonicalState(&b)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}
