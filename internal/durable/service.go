package durable

import (
	"errors"
	"fmt"
	"io/fs"
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
	// recovery replays the full journal. Publishing a checkpoint also uses
	// CheckpointPath+".tmp" while it writes and leaves the superseded
	// checkpoint as CheckpointPath+".prev", the file the next checkpoint
	// overwrites (see checkpointFile). Recovery reads CheckpointPath only.
	CheckpointPath string
	// CheckpointEvery writes a checkpoint after every N completed rounds;
	// 0 disables automatic checkpoints (Checkpoint can still be called).
	CheckpointEvery int
	// Sync fsyncs the journal after every append, and each checkpoint's
	// written file before the rename that publishes it and the checkpoint's
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
	ckpt     checkpointFile
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
	// drop a job.
	cancels := e.Kind == fault.Fail || e.Kind == fault.Revoke
	sched := ds.svc.Scheduler()
	before := sched.DroppedCount()
	ds.roundRec = rec.Round
	requeued, rep, err := fault.Dispatch((*engine)(ds), e)
	rec.Round, ds.roundRec = ds.roundRec, nil
	if err != nil {
		return nil, nil, err
	}
	var dropped []string
	if cancels {
		if sched.DroppedCount() != before {
			dropped = newlyDropped(ds.appliedLive, sched.DroppedJobs())
		}
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
// stamped with the journal position it corresponds to, and publishes it
// atomically (see checkpointFile), so a crash mid-checkpoint leaves the
// previous checkpoint intact. The grid section is streamed from the live
// booking lists into a buffer kept between checkpoints. With Options.Sync
// the written file is fsynced before the rename that publishes it and the
// directory after, so the published checkpoint also survives power loss.
func (ds *Service) Checkpoint() error {
	if ds.opts.CheckpointPath == "" {
		return fmt.Errorf("durable: no checkpoint path configured")
	}
	// The service export carries no state; it refuses an open round, whose
	// frozen batch and pending plan are not committed state.
	if _, err := ds.svc.ExportState(); err != nil {
		return err
	}
	sched := ds.svc.Scheduler()
	cp := &codec.Checkpoint{
		Seq:           ds.j.Seq(),
		JournalOffset: ds.j.Size(),
		Rounds:        ds.rounds,
		Sched:         sched.ExportState(),
	}
	data, err := codec.AppendCheckpoint(ds.ckpt.buf[:0], cp, sched.Grid())
	if err != nil {
		return err
	}
	ds.ckpt.buf = data
	if err := ds.ckpt.publish(ds.opts.CheckpointPath, data, ds.opts.Sync); err != nil {
		return err
	}
	ds.m.checkpoints.Inc()
	return nil
}

// checkpointFile publishes checkpoints at one path. A publish writes the
// file under path.tmp and renames it over path. Creating that file afresh
// each time is the slow part: on ext4, renaming a new file over the old one
// makes the rename allocate the new file's delayed blocks and free the old
// inode's pages. So a publish instead overwrites the checkpoint before the
// current one, which the last publish left hard-linked as path.prev:
// rename path.prev to path.tmp, write it in place and cut it to length,
// hard-link path to path.prev, rename path.tmp over path. path.prev costs
// one checkpoint's worth of disk.
//
// Only a publish this process completed leaves a path.prev fit to
// overwrite: the superseded checkpoint, which shares no inode with path. At
// open, after any failed step, and whenever hard links fail, the next
// publish unlinks path.prev and path.tmp and writes a new file, because a
// crash between the link and the rename leaves path.prev naming the
// published checkpoint itself.
type checkpointFile struct {
	// buf is the encoding buffer, kept so a checkpoint reallocates nothing.
	buf []byte
	// recycle is set by a completed publish that linked path.prev.
	recycle bool
	// noLinks is set once a hard link failed for another reason than a
	// missing path: the file system has none, and every publish writes a
	// new file.
	noLinks bool
}

// publish makes data the checkpoint at path.
func (c *checkpointFile) publish(path string, data []byte, sync bool) error {
	tmp, prev := path+".tmp", path+".prev"
	recycle := c.recycle
	c.recycle = false // until this publish completes
	var f *os.File
	var err error
	if recycle {
		if err = os.Rename(prev, tmp); err == nil {
			f, err = os.OpenFile(tmp, os.O_WRONLY, 0)
		}
	} else if err = removeIfExists(prev); err == nil {
		if err = removeIfExists(tmp); err == nil {
			f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	_, err = f.WriteAt(data, 0)
	if err == nil && recycle {
		err = f.Truncate(int64(len(data)))
	}
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	linked := false
	if !c.noLinks {
		switch err := os.Link(path, prev); {
		case err == nil:
			linked = true
		case !errors.Is(err, fs.ErrNotExist): // path missing: the first checkpoint
			c.noLinks = true
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: publish checkpoint: %w", err)
	}
	if sync {
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("durable: sync checkpoint directory: %w", err)
		}
	}
	c.recycle = linked
	return nil
}

// removeIfExists unlinks name unless it is already gone.
func removeIfExists(name string) error {
	if err := os.Remove(name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// syncDir fsyncs a directory, making the renames in it durable.
func syncDir(name string) error {
	dir, err := os.Open(name)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// newlyDropped returns, sorted, the dropped jobs that held an applied plan
// before a cancellation. A cancellation drops only jobs it took a
// reservation from, and a job holding an applied plan was never dropped
// before, so these are exactly the jobs the cancellation dropped.
func newlyDropped(held map[string]bool, dropped map[string]string) []string {
	var out []string
	for name := range dropped {
		if held[name] {
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
	// FNV-64a over the builder's string, which hash/fnv would take only as
	// a copy.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for s, i := b.String(), 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
