package durable

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"ecosched/internal/codec"
	"ecosched/internal/dp"
	"ecosched/internal/fault"
	"ecosched/internal/metasched"
)

// Factory rebuilds the pristine, pre-journal service: the same pool, grid,
// scheduler configuration, and seeds the original session started from.
// Recovery = factory() + checkpoint restore (if valid) + journal replay;
// because configuration comes from code and the journal carries every
// transition, the recovered state is byte-identical to the crashed one.
type Factory func() (*metasched.Service, error)

// RecoveryReport describes what a recovery did.
type RecoveryReport struct {
	// CheckpointUsed reports whether a valid checkpoint cut the replay.
	CheckpointUsed bool
	// RecordsScanned counts the intact records found in the journal;
	// RecordsReplayed counts how many were replayed (all of them on a full
	// replay, the post-checkpoint suffix otherwise).
	RecordsScanned  int
	RecordsReplayed int
	// TornBytesDropped is the size of the torn tail a crash left behind.
	TornBytesDropped int64
	// Replayed counts the replayed records by event kind.
	Replayed [fault.NumKinds]int
	// AppliedLive is the journal-derived applied-plan ledger after replay,
	// sorted — already cross-checked against the scheduler's placed set.
	AppliedLive []string
}

// Recover rebuilds a durable service from its journal: construct the
// pristine service via the factory, restore the latest valid checkpoint if
// one aligns with the journal, replay the remaining records through the real
// service handlers (cross-checking each record's journaled outcome), and
// verify recovery coherence — the scheduler's placed set must equal the
// journal's applied-plan ledger, so no applied plan is lost and no unlogged
// booking resurrected. The returned service appends where the journal left
// off.
//
// A torn journal tail and a torn or missing checkpoint are absorbed
// (truncate, fall back to full replay); a record that fails to decode,
// replays differently than journaled, or comes from an incompatible format
// version is an error — the journal and the code disagree about history, and
// loading approximately would corrupt state.
func Recover(opts Options, factory Factory) (*Service, *RecoveryReport, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if factory == nil {
		return nil, nil, fmt.Errorf("durable: nil factory")
	}
	svc, err := factory()
	if err != nil {
		return nil, nil, fmt.Errorf("durable: factory: %w", err)
	}
	if svc == nil {
		return nil, nil, fmt.Errorf("durable: factory returned nil service")
	}
	m := newDurableMetrics(opts.Metrics)
	j, payloads, torn, err := OpenJournal(opts.JournalPath, opts.Sync, m)
	if err != nil {
		return nil, nil, err
	}
	ds, rep, err := recoverFrom(svc, j, payloads, torn, opts, m)
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	return ds, rep, nil
}

// recoverFrom decodes, restores, and replays against an open journal.
func recoverFrom(svc *metasched.Service, j *Journal, payloads [][]byte, torn int64, opts Options, m *durableMetrics) (*Service, *RecoveryReport, error) {
	pool := svc.Scheduler().Grid().Pool()
	records := make([]*codec.Record, len(payloads))
	for i, p := range payloads {
		rec, err := codec.DecodeRecord(p, pool)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: record %d: %w", i+1, err)
		}
		if rec.Seq != uint64(i+1) {
			return nil, nil, fmt.Errorf("durable: record %d carries sequence %d (duplicated or reordered journal)", i+1, rec.Seq)
		}
		records[i] = rec
	}
	rep := &RecoveryReport{RecordsScanned: len(records), TornBytesDropped: torn}
	ds := &Service{svc: svc, j: j, opts: opts, m: m, appliedLive: map[string]bool{}}

	// Frame boundaries in file coordinates: boundary[k] is the journal size
	// after k records. A checkpoint is usable only when its JournalOffset
	// lands exactly on one of these — anything else means the checkpoint and
	// the journal disagree and full replay is the safe path.
	boundaries := make([]int64, len(records)+1)
	off := int64(len(codec.JournalMagic))
	boundaries[0] = off
	for i, p := range payloads {
		off += int64(len(p)) + codec.FrameOverhead
		boundaries[i+1] = off
	}
	replayFrom := 0
	if opts.CheckpointPath != "" {
		cp, err := loadCheckpoint(opts.CheckpointPath)
		if err != nil {
			return nil, nil, err
		}
		if cp != nil {
			if at := slices.Index(boundaries, cp.JournalOffset); at >= 0 && cp.Seq == uint64(at) {
				if err := restoreCheckpoint(ds, cp); err != nil {
					return nil, nil, fmt.Errorf("durable: checkpoint restore: %w", err)
				}
				replayFrom = at
				rep.CheckpointUsed = true
			}
		}
	}
	m.replayStarted(rep.CheckpointUsed)

	for i := replayFrom; i < len(records); i++ {
		if _, _, err := ds.apply(records[i], true); err != nil {
			return nil, nil, fmt.Errorf("durable: replay record %d (%v): %w", i+1, records[i].Event, err)
		}
		rep.Replayed[records[i].Event.Kind]++
		rep.RecordsReplayed++
		m.replayed.Inc()
	}
	j.resume(uint64(len(records)))

	rep.AppliedLive = ds.AppliedLive()
	placed := svc.Scheduler().PlacedJobs()
	if !slices.Equal(rep.AppliedLive, placed) {
		return nil, nil, fmt.Errorf("durable: recovery incoherent: journal applied-plan ledger %v, scheduler placed set %v",
			rep.AppliedLive, placed)
	}
	return ds, rep, nil
}

// loadCheckpoint reads and decodes the checkpoint file. A missing or torn
// checkpoint returns nil (fall back to full replay); version skew and I/O
// errors are hard failures.
func loadCheckpoint(path string) (*codec.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: read checkpoint: %w", err)
	}
	cp, err := codec.DecodeCheckpoint(data)
	if err != nil {
		var skew *codec.VersionSkewError
		if errors.As(err, &skew) {
			return nil, fmt.Errorf("durable: checkpoint %s: %w", path, err)
		}
		// Torn, or structurally intact but semantically invalid (e.g.
		// malformed JSON inside a valid frame): the journal can always
		// reproduce the state.
		return nil, nil
	}
	return cp, nil
}

// restoreCheckpoint loads a checkpoint's state layers into the
// service, seeding the applied-live ledger and round counter from it.
func restoreCheckpoint(ds *Service, cp *codec.Checkpoint) error {
	sched := ds.svc.Scheduler()
	if err := sched.Grid().RestoreState(cp.Grid); err != nil {
		return err
	}
	if err := sched.RestoreState(cp.Sched); err != nil {
		return err
	}
	if err := ds.svc.RestoreState(cp.Service); err != nil {
		return err
	}
	ds.rounds = cp.Rounds
	ds.appliedLive = map[string]bool{}
	for _, name := range sched.PlacedJobs() {
		ds.appliedLive[name] = true
	}
	return nil
}

// journaledPlan rebuilds a round record's plan against the recovered queue.
func (ds *Service) journaledPlan(rr *codec.RoundRecord) (*metasched.Plan, error) {
	if !rr.Planned {
		return nil, nil
	}
	plan := &metasched.Plan{Iteration: rr.Iteration, Epoch: rr.Epoch, TotalTime: rr.TotalTime, TotalCost: rr.TotalCost}
	for _, cr := range rr.Choices {
		jb := ds.svc.Scheduler().QueuedJob(cr.Job)
		if jb == nil {
			return nil, fmt.Errorf("planned job %q is not in the recovered queue", cr.Job)
		}
		plan.Choices = append(plan.Choices, dp.Choice{Job: jb, Window: cr.Window})
	}
	return plan, nil
}
