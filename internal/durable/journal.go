// Package durable makes the continuous metascheduler service crash-safe: a
// write-ahead journal records every externally visible transition (job
// submission, node failure/recovery, interval revocation, and each complete
// plan/apply round) as a length-prefixed, CRC-framed record, and periodic
// checkpoints snapshot the canonical grid + scheduler + service state so
// recovery restores the latest valid checkpoint and replays only the journal
// suffix. The service is a deterministic state machine, so the journal is a
// redo log: records are appended after a transition succeeds, and replaying
// them through the real handlers reproduces the state byte for byte — the
// crash-injection differential truncates the journal at every record and
// every byte offset and proves the recovered canonical state, and the rest
// of the session transcript, identical to the uncrashed run.
package durable

import (
	"fmt"
	"os"

	"ecosched/internal/codec"
)

// Journal is an append-only record log backed by one file. Opening scans the
// existing content, drops a torn tail (the debris of a crash mid-append) by
// truncating the file back to its last complete frame, and resumes appending
// from there.
type Journal struct {
	f    *os.File
	path string
	// size is the current file length; every byte below it is verified.
	size int64
	// seq is the last appended record's sequence number.
	seq uint64
	// sync forces an fsync after every append.
	sync bool
	m    *durableMetrics
}

// OpenJournal opens (creating if absent) the journal at path and returns the
// verified frame payloads already in it, in order, for the caller to decode
// and replay. A brand-new journal gets the magic header; an existing one is
// scanned, its torn tail (if any) truncated away, and appends resume from
// the valid prefix. A file that exists but does not start with the journal
// magic is rejected — it is not a journal, and appending to it would destroy
// whatever it is. The third result reports how many torn-tail bytes were
// dropped. A nil m records nothing.
func OpenJournal(path string, sync bool, m *durableMetrics) (*Journal, [][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("durable: read journal: %w", err)
	}
	if m == nil {
		m = &disabledDurableMetrics
	}
	j := &Journal{path: path, sync: sync, m: m}
	var payloads [][]byte
	var torn int64
	valid := 0
	switch {
	case len(data) == 0:
		// Fresh (or empty) journal: start with the magic header.
		if err := os.WriteFile(path, []byte(codec.JournalMagic), 0o644); err != nil {
			return nil, nil, 0, fmt.Errorf("durable: init journal: %w", err)
		}
		j.size = int64(len(codec.JournalMagic))
	case len(data) < len(codec.JournalMagic) || string(data[:len(codec.JournalMagic)]) != codec.JournalMagic:
		return nil, nil, 0, fmt.Errorf("durable: %s is not a journal (bad magic)", path)
	default:
		payloads, _, valid = codec.ScanFrames(data[len(codec.JournalMagic):])
		j.size = int64(len(codec.JournalMagic) + valid)
		if torn = int64(len(data)) - j.size; torn > 0 {
			if err := os.Truncate(path, j.size); err != nil {
				return nil, nil, 0, fmt.Errorf("durable: truncate torn tail: %w", err)
			}
			m.tornBytes.Add(torn)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: open journal: %w", err)
	}
	j.f = f
	return j, payloads, torn, nil
}

// Append journals one record. The record's sequence number is assigned here
// (monotone from the journal's resume point) and the framed bytes hit the
// file before Append returns; with sync on they are fsynced too.
func (j *Journal) Append(rec *codec.Record) error {
	j.seq++
	rec.Seq = j.seq
	frame, err := codec.EncodeRecord(rec)
	if err != nil {
		j.seq--
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync: %w", err)
		}
	}
	j.size += int64(len(frame))
	j.m.appended(int64(len(frame)))
	return nil
}

// Size returns the journal's current byte length (magic included). A
// checkpoint stamps this as its JournalOffset.
func (j *Journal) Size() int64 { return j.size }

// Seq returns the last appended record's sequence number.
func (j *Journal) Seq() uint64 { return j.seq }

// resume sets the sequence counter after the existing records were scanned.
func (j *Journal) resume(seq uint64) { j.seq = seq }

// Close closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
