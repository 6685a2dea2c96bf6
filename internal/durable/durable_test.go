package durable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecosched/internal/codec"
	"ecosched/internal/durable"
	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
)

// miniSession drives a short durable session against the fuzz scenario:
// three submits, a tick, a node failure, a tick (checkpoint lands here with
// cadence 2), a recovery, and a final tick — eight journaled transitions.
func miniSession(t *testing.T, opts durable.Options) *durable.Service {
	t.Helper()
	svc, err := fuzzFactory()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := durable.New(svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"j1", "j2", "j3"} {
		j := &job.Job{
			Name: name, Priority: i + 1,
			Request: job.ResourceRequest{Nodes: 1, Time: sim.Duration(40 + 10*i), MinPerformance: 1, MaxPrice: 6},
		}
		if err := ds.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ds.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.HandleNodeFailure("n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := ds.HandleNodeRecovery("n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Tick(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestJournalMetrics pins every metasched/durable/* instrument over one write
// session and one recovery: append and byte totals on the write side,
// checkpoint count at the configured cadence, and replay, replayed-record,
// checkpoint-recovery, and torn-tail counters on the recover side.
func TestJournalMetrics(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{
		JournalPath:     filepath.Join(dir, "m.journal"),
		CheckpointPath:  filepath.Join(dir, "m.ckpt"),
		CheckpointEvery: 2,
	}
	writeReg := metrics.New()
	wo := opts
	wo.Metrics = writeReg
	ds := miniSession(t, wo)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(opts.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	snap := writeReg.Snapshot()
	if got := snap.Counter("metasched/durable/records_appended_total"); got != 8 {
		t.Fatalf("records_appended_total = %d, want 8", got)
	}
	wantBytes := info.Size() - int64(len(codec.JournalMagic))
	if got := snap.Counter("metasched/durable/journal_bytes_total"); got != wantBytes {
		t.Fatalf("journal_bytes_total = %d, want %d (file size minus magic)", got, wantBytes)
	}
	// Eight records, three of them rounds: the cadence-2 checkpoint fires
	// once, after the second round.
	if got := snap.Counter("metasched/durable/checkpoints_written_total"); got != 1 {
		t.Fatalf("checkpoints_written_total = %d, want 1", got)
	}

	// Tear the tail, then recover with a fresh registry.
	f, err := os.OpenFile(opts.JournalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recReg := metrics.New()
	ro := opts
	ro.Metrics = recReg
	rds, rep, err := durable.Recover(ro, fuzzFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer rds.Close()
	if !rep.CheckpointUsed {
		t.Fatal("recovery ignored the checkpoint")
	}
	// The checkpoint covers the first six records (through the second round);
	// the trailing recovery + tick replay.
	if rep.RecordsReplayed != 2 {
		t.Fatalf("RecordsReplayed = %d, want 2", rep.RecordsReplayed)
	}
	rsnap := recReg.Snapshot()
	for name, want := range map[string]int64{
		"metasched/durable/replays_total":                    1,
		"metasched/durable/records_replayed_total":           2,
		"metasched/durable/recoveries_from_checkpoint_total": 1,
		"metasched/durable/torn_tail_bytes_dropped_total":    4,
	} {
		if got := rsnap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if rep.TornBytesDropped != 4 {
		t.Fatalf("TornBytesDropped = %d, want 4", rep.TornBytesDropped)
	}
}

// TestSyncCheckpointRecovers: with Options.Sync the checkpoint goes through
// the fsync path (temp file, rename, directory) for a new file and for a
// recycled one, writes the same bytes as without it, leaves the superseded
// checkpoint as path.prev in a file of its own, and recovers to the live
// session's state hash.
func TestSyncCheckpointRecovers(t *testing.T) {
	var ckpts [2][]byte
	for i, sync := range []bool{false, true} {
		dir := t.TempDir()
		opts := durable.Options{
			JournalPath:     filepath.Join(dir, "s.journal"),
			CheckpointPath:  filepath.Join(dir, "s.ckpt"),
			CheckpointEvery: 2,
			Sync:            sync,
		}
		ds := miniSession(t, opts)
		// The cadence wrote a new file; the next links it as path.prev, the
		// one after overwrites it.
		for k := 0; k < 2; k++ {
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		want := durable.StateHash(ds.Unwrap())
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		ckpts[i] = data
		if _, err := os.Stat(opts.CheckpointPath + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("sync=%v: temp file left behind (%v)", sync, err)
		}
		cur, err1 := os.Stat(opts.CheckpointPath)
		prev, err2 := os.Stat(opts.CheckpointPath + ".prev")
		if err1 != nil || err2 != nil {
			t.Fatalf("sync=%v: %v, %v", sync, err1, err2)
		}
		if os.SameFile(cur, prev) {
			t.Fatalf("sync=%v: path.prev is the published checkpoint", sync)
		}
		rds, rep, err := durable.Recover(opts, fuzzFactory)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.CheckpointUsed {
			t.Fatalf("sync=%v: recovery ignored the checkpoint", sync)
		}
		if got := durable.StateHash(rds.Unwrap()); got != want {
			t.Fatalf("sync=%v: recovered state hash %016x, want %016x", sync, got, want)
		}
		if err := rds.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatal("Sync changed the checkpoint bytes")
	}
}

// TestNewRejectsExistingHistory: a journal that already holds records is
// history the fresh service does not have — New must refuse it and point at
// Recover instead of silently appending a second timeline.
func TestNewRejectsExistingHistory(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{JournalPath: filepath.Join(dir, "h.journal")}
	ds := miniSession(t, opts)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err := fuzzFactory()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.New(svc, opts); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("New over a populated journal: err = %v, want a use-Recover rejection", err)
	}
}

// TestOptionsValidation covers the construction error paths: a missing
// journal path, a checkpoint cadence without a checkpoint file, a negative
// cadence, a journal path holding a non-journal file, checkpointing without a
// configured path, and a nil service/factory.
func TestOptionsValidation(t *testing.T) {
	svc, err := fuzzFactory()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.New(svc, durable.Options{}); err == nil {
		t.Fatal("New accepted empty options")
	}
	if _, err := durable.New(svc, durable.Options{JournalPath: "x", CheckpointEvery: 2}); err == nil {
		t.Fatal("New accepted a checkpoint cadence without a checkpoint path")
	}
	if _, err := durable.New(svc, durable.Options{JournalPath: "x", CheckpointEvery: -1}); err == nil {
		t.Fatal("New accepted a negative checkpoint cadence")
	}
	if _, err := durable.New(nil, durable.Options{JournalPath: "x"}); err == nil {
		t.Fatal("New accepted a nil service")
	}

	dir := t.TempDir()
	notJournal := filepath.Join(dir, "not.journal")
	if err := os.WriteFile(notJournal, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.New(svc, durable.Options{JournalPath: notJournal}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("New over a non-journal file: err = %v, want bad-magic rejection", err)
	}

	ds, err := durable.New(svc, durable.Options{JournalPath: filepath.Join(dir, "j.journal")})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded without a checkpoint path")
	}

	if _, _, err := durable.Recover(durable.Options{JournalPath: filepath.Join(dir, "r.journal")}, nil); err == nil {
		t.Fatal("Recover accepted a nil factory")
	}
}

// TestRecoverRejectsVersionSkew: a checkpoint from a future format version is
// a hard error — unlike a torn checkpoint, it cannot be absorbed by replaying
// the journal, because the journal may use the same future format.
func TestRecoverRejectsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{
		JournalPath:     filepath.Join(dir, "v.journal"),
		CheckpointPath:  filepath.Join(dir, "v.ckpt"),
		CheckpointEvery: 2,
	}
	ds := miniSession(t, opts)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the checkpoint with a bumped version inside a valid frame.
	skew := append([]byte(codec.CheckpointMagic), codec.Frame([]byte(`{"v":99}`))...)
	if err := os.WriteFile(opts.CheckpointPath, skew, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := durable.Recover(opts, fuzzFactory); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Recover with a version-skewed checkpoint: err = %v, want a version error", err)
	}
	// A torn checkpoint, by contrast, falls back to full replay.
	if err := os.WriteFile(opts.CheckpointPath, []byte(codec.CheckpointMagic+"half a fra"), 0o644); err != nil {
		t.Fatal(err)
	}
	rds, rep, err := durable.Recover(opts, fuzzFactory)
	if err != nil {
		t.Fatalf("Recover with a torn checkpoint: %v", err)
	}
	defer rds.Close()
	if rep.CheckpointUsed {
		t.Fatal("recovery claims it used a torn checkpoint")
	}
	if rep.RecordsReplayed != rep.RecordsScanned {
		t.Fatalf("full replay replayed %d of %d records", rep.RecordsReplayed, rep.RecordsScanned)
	}
}

// TestRecoverChecksRecoverOutcome: replay cross-checks the outcome ledger of
// every event record, recoveries included, so a recover record claiming a
// requeue that the replay does not produce fails recovery.
func TestRecoverChecksRecoverOutcome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.journal")
	journal := []byte(codec.JournalMagic)
	for _, payload := range []string{
		`{"v":2,"seq":1,"kind":"fail","now":0,"node":"n2"}`,
		`{"v":2,"seq":2,"kind":"recover","now":0,"node":"n2","requeued":["x"]}`,
	} {
		journal = append(journal, codec.Frame([]byte(payload))...)
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := durable.Recover(durable.Options{JournalPath: path}, fuzzFactory)
	if err == nil || !strings.Contains(err.Error(), "journaled requeues [x]") {
		t.Fatalf("Recover over a recover record claiming a requeue: err = %v, want a journaled-requeues mismatch", err)
	}
}
