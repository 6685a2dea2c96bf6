package durable

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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

// Service wraps a metasched.Service so every externally visible transition
// is journaled after it succeeds. It exposes the same driving surface as the
// wrapped service (fault.ServiceDriver), so chaos sessions and the CLI run
// unmodified against it.
type Service struct {
	svc  *metasched.Service
	j    *Journal
	opts Options
	m    *durableMetrics
	// rounds counts completed rounds (checkpoint cadence); survives
	// recovery via the checkpoint's Rounds field plus replayed rounds.
	rounds int
	// appliedLive is the journal-derived ledger of jobs holding applied
	// plans: round records add their placed jobs, event records remove
	// their requeued and dropped jobs. The recovery-coherence invariant pins
	// it against the scheduler's own placed set.
	appliedLive map[string]bool
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

// Submit routes a submission through the service and journals it.
func (ds *Service) Submit(j *job.Job) error {
	if err := ds.svc.Submit(j); err != nil {
		return err
	}
	return ds.j.Append(&codec.Record{
		Kind: codec.RecordSubmit,
		Now:  ds.svc.Scheduler().Grid().Now(),
		Job:  j,
	})
}

// HandleNodeFailure journals a node failure; see handle.
func (ds *Service) HandleNodeFailure(nodeLabel string) ([]string, error) {
	return ds.handle(fault.Event{Kind: fault.Fail, Node: nodeLabel})
}

// HandleNodeRecovery journals a node recovery; see handle.
func (ds *Service) HandleNodeRecovery(nodeLabel string) error {
	_, err := ds.handle(fault.Event{Kind: fault.Recover, Node: nodeLabel})
	return err
}

// HandleRevocation journals an owner revocation; see handle.
func (ds *Service) HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error) {
	return ds.handle(fault.Event{Kind: fault.Revoke, Node: nodeLabel, Span: span})
}

// handle routes an environment event through the service at the current
// clock and journals it, stamped with that clock, together with its outcome,
// which replay cross-checks.
func (ds *Service) handle(e fault.Event) ([]string, error) {
	e.At = ds.svc.Scheduler().Grid().Now()
	requeued, dropped, err := ds.outcome(e)
	if err != nil {
		return nil, err
	}
	return requeued, ds.j.Append(&codec.Record{
		Kind:     codec.RecordEvent,
		Event:    e,
		Requeued: requeued,
		Dropped:  dropped,
	})
}

// outcome applies an environment event through the wrapped service, retires
// the jobs it re-queued or newly dropped from the applied-live ledger, and
// returns both: the live path journals them, replay compares.
func (ds *Service) outcome(e fault.Event) (requeued, dropped []string, err error) {
	if e.Kind == fault.Recover {
		// A recovery only adds vacancy: it cancels nothing, so there is
		// nothing to re-queue or drop and no drop ledger to copy.
		_, err := fault.Dispatch(ds.svc, e)
		return nil, nil, err
	}
	before := ds.svc.Scheduler().DroppedJobs()
	if requeued, err = fault.Dispatch(ds.svc, e); err != nil {
		return nil, nil, err
	}
	dropped = newlyDropped(before, ds.svc.Scheduler().DroppedJobs())
	for _, name := range requeued {
		delete(ds.appliedLive, name)
	}
	for _, name := range dropped {
		delete(ds.appliedLive, name)
	}
	return requeued, dropped, nil
}

// Tick runs one full service round — the durable counterpart of
// metasched.Service.Tick — and journals it: the applied combination with its
// snapshot epoch, the windows rejected as stale, and the jobs placed. The
// record is written after the round completes, so a crash anywhere inside
// the round recovers to the pre-round state and the driver re-issues the
// tick; the round is deterministic, so the re-run lands on the same state
// the record would have described.
func (ds *Service) Tick() (*metasched.IterationReport, error) {
	now := ds.svc.Scheduler().Grid().Now()
	r, err := ds.svc.BeginRound()
	if err != nil {
		return nil, err
	}
	if err := r.Evaluate(); err != nil {
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
	rr := &codec.RoundRecord{
		Iteration: rep.Iteration,
		Stale:     stale,
	}
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
	if err := ds.j.Append(&codec.Record{Kind: codec.RecordRound, Now: now, Round: rr}); err != nil {
		return nil, err
	}
	ds.rounds++
	if ds.opts.CheckpointEvery > 0 && ds.rounds%ds.opts.CheckpointEvery == 0 {
		if err := ds.Checkpoint(); err != nil {
			return nil, err
		}
	}
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
