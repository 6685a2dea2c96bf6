// Journal records: the wire layer of the crash-safe durability subsystem
// (internal/durable). Every event the service applies — a fault.Event: job
// submission, node failure, recovery or interval revocation, or a full
// plan/apply round — is one length-prefixed, CRC-framed JSON record appended
// to the write-ahead journal. Frames make torn tails detectable (a crash
// mid-append leaves a frame whose length or checksum cannot verify, and
// recovery drops it cleanly); versioned payloads make skew detectable (a
// journal written by a future format is rejected with a clear error, never
// loaded approximately). Node identity is by label, not pool index: a
// recovered pool is rebuilt by a factory and labels are its stable names.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"ecosched/internal/fault"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// JournalVersion identifies the journal record wire format; bump on
// incompatible changes. Recovery rejects records from any other version.
// Version 2 dropped the round record's tick flag.
const JournalVersion = 2

// JournalMagic is the 8-byte header a journal file starts with.
const JournalMagic = "ECOJRNL1"

// FrameOverhead is the per-frame prefix length: a 4-byte big-endian payload
// length followed by the 4-byte big-endian IEEE CRC32 of the payload.
const FrameOverhead = 8

// maxFramePayload bounds a single frame. Journal records are small (a round
// record with a dozen choices is a few KB); the bound keeps a corrupted
// length field from demanding a gigabyte allocation during a scan.
const maxFramePayload = 16 << 20

// ErrTorn marks a structurally incomplete or checksum-corrupt region: a
// frame cut short by a crash, or bytes that never were a frame. Recovery
// treats a torn tail as the end of the journal; a torn checkpoint falls back
// to full replay.
var ErrTorn = errors.New("codec: torn or corrupt frame")

// VersionSkewError reports a payload written by an incompatible format
// version. Unlike ErrTorn it is never silently absorbed: skew means the
// operator mixed binaries, and loading approximately would corrupt state.
type VersionSkewError struct {
	What string
	Got  int
	Want int
}

func (e *VersionSkewError) Error() string {
	return fmt.Sprintf("codec: %s format version %d (this binary reads %d)", e.What, e.Got, e.Want)
}

// Frame wraps a payload as one journal frame: length, CRC32, payload.
func Frame(payload []byte) []byte {
	out := make([]byte, FrameOverhead+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[FrameOverhead:], payload)
	return out
}

// ScanFrames walks data frame by frame, returning each verified payload and
// the byte offset just past its frame, plus the length of the valid prefix.
// Scanning stops at the first torn frame (short header, short payload,
// oversized length, or CRC mismatch): everything from there on is the torn
// tail a crash left behind, and validLen is where an append may safely
// resume after truncation.
func ScanFrames(data []byte) (payloads [][]byte, ends []int, validLen int) {
	off := 0
	for off+FrameOverhead <= len(data) {
		// The bound is checked before the conversion: on a 32-bit build a
		// length with the top bit set is a negative int.
		size := binary.BigEndian.Uint32(data[off : off+4])
		if size > maxFramePayload || off+FrameOverhead+int(size) > len(data) {
			break
		}
		n := int(size)
		payload := data[off+FrameOverhead : off+FrameOverhead+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4:off+8]) {
			break
		}
		off += FrameOverhead + n
		payloads = append(payloads, payload)
		ends = append(ends, off)
	}
	return payloads, ends, off
}

// Record is one journal entry in domain form: the event the service applied,
// stamped with the clock it applied at, and its deterministic outcome. A
// journal's events read back as the script the service lived through.
// Replay re-applies each event through the real service and cross-checks
// the outcome fields — a mismatch means the journal and the code disagree
// about history, and recovery fails instead of loading it.
type Record struct {
	// Seq is the append sequence number (1-based, monotone).
	Seq uint64
	// Event is the applied event; a submit carries the full job.
	Event fault.Event
	// Requeued and Dropped are a failure's or revocation's outcome ledger:
	// the jobs re-queued, and the jobs terminally dropped, by the event.
	Requeued []string
	Dropped  []string
	// Round is a round event's outcome: the plan it applied.
	Round *RoundRecord
}

// RoundRecord captures one scheduling round for replay-driven apply: the
// recovered round skips the search, installs exactly these choices, and runs
// the normal serial applier against them.
type RoundRecord struct {
	// Iteration is the 1-based scheduler iteration the round drove.
	Iteration int
	// Planned records whether the round's search produced a combination;
	// Epoch, TotalTime, TotalCost, and Choices are meaningful only then.
	Planned   bool
	Epoch     uint64
	TotalTime sim.Duration
	TotalCost sim.Money
	// Choices are the applied combination's windows in choice order.
	Choices []ChoiceRecord
	// Stale lists the jobs whose windows the applier rejected, in choice
	// order; Placed lists the jobs committed, in choice order.
	Stale  []string
	Placed []string
}

// ChoiceRecord is one chosen window, the job referenced by name.
type ChoiceRecord struct {
	Job    string
	Window *slot.Window
}

// recordJSON is the wire form of a Record.
type recordJSON struct {
	Version   int        `json:"v"`
	Seq       uint64     `json:"seq"`
	Kind      string     `json:"kind"`
	Now       int64      `json:"now"`
	Job       *jobJSON   `json:"job,omitempty"`
	Node      string     `json:"node,omitempty"`
	SpanStart int64      `json:"span_start,omitempty"`
	SpanEnd   int64      `json:"span_end,omitempty"`
	Requeued  []string   `json:"requeued,omitempty"`
	Dropped   []string   `json:"dropped,omitempty"`
	Round     *roundJSON `json:"round,omitempty"`
}

type roundJSON struct {
	Iteration int          `json:"iteration"`
	Planned   bool         `json:"planned,omitempty"`
	Epoch     uint64       `json:"epoch,omitempty"`
	TotalTime int64        `json:"total_time,omitempty"`
	TotalCost float64      `json:"total_cost,omitempty"`
	Choices   []choiceJSON `json:"choices,omitempty"`
	Stale     []string     `json:"stale,omitempty"`
	Placed    []string     `json:"placed,omitempty"`
}

type choiceJSON struct {
	Job        string          `json:"job"`
	Placements []placementJSON `json:"placements"`
}

type placementJSON struct {
	Node      string  `json:"node"`
	Price     float64 `json:"price"`
	SrcStart  int64   `json:"src_start"`
	SrcEnd    int64   `json:"src_end"`
	UsedStart int64   `json:"used_start"`
	UsedEnd   int64   `json:"used_end"`
}

// EncodeRecord serializes the record and wraps it as one journal frame.
func EncodeRecord(rec *Record) ([]byte, error) {
	if rec == nil {
		return nil, fmt.Errorf("codec: nil journal record")
	}
	e := rec.Event
	if err := checkRecordEvent(rec.Seq, e, rec.Round != nil); err != nil {
		return nil, err
	}
	doc := recordJSON{
		Version:   JournalVersion,
		Seq:       rec.Seq,
		Kind:      e.Kind.String(),
		Now:       int64(e.At),
		Node:      e.Node,
		SpanStart: int64(e.Span.Start),
		SpanEnd:   int64(e.Span.End),
		Requeued:  rec.Requeued,
		Dropped:   rec.Dropped,
	}
	if e.Job != nil {
		w := jobToWire(e.Job)
		doc.Job = &w
	}
	if rr := rec.Round; rr != nil {
		r := roundJSON{
			Iteration: rr.Iteration,
			Planned:   rr.Planned,
			Epoch:     rr.Epoch,
			TotalTime: int64(rr.TotalTime),
			TotalCost: float64(rr.TotalCost),
			Stale:     rr.Stale,
			Placed:    rr.Placed,
		}
		for _, ch := range rr.Choices {
			if ch.Window == nil {
				return nil, fmt.Errorf("codec: round record %d choice %q without a window", rec.Seq, ch.Job)
			}
			cj := choiceJSON{Job: ch.Job}
			for _, p := range ch.Window.Placements {
				cj.Placements = append(cj.Placements, placementJSON{
					Node:      p.Source.Node.Label(),
					Price:     float64(p.Source.Price),
					SrcStart:  int64(p.Source.Span.Start),
					SrcEnd:    int64(p.Source.Span.End),
					UsedStart: int64(p.Used.Start),
					UsedEnd:   int64(p.Used.End),
				})
			}
			r.Choices = append(r.Choices, cj)
		}
		doc.Round = &r
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return Frame(payload), nil
}

// checkRecordEvent rejects what a journal cannot hold: an event not stamped
// with a time (fault.Untimed included) or that fails fault.Event.Validate,
// and a round event without its round payload (or any other event with one).
func checkRecordEvent(seq uint64, e fault.Event, hasRound bool) error {
	if e.At < 0 {
		return fmt.Errorf("codec: record %d at negative time %d", seq, e.At)
	}
	if err := e.Validate(); err != nil {
		return fmt.Errorf("codec: record %d: %w", seq, err)
	}
	if (e.Kind == fault.Round) != hasRound {
		return fmt.Errorf("codec: record %d: a round event carries a round payload, no other event does", seq)
	}
	return nil
}

// DecodeRecord rebuilds a record from one verified frame payload, resolving
// node labels against the pool. Unknown fields, version skew, unknown kinds,
// a negative clock, events that fail fault.Event.Validate, and structurally
// invalid jobs or windows are all rejected — a record either decodes to
// exactly what was written or fails with a diagnosable error.
func DecodeRecord(payload []byte, pool *resource.Pool) (*Record, error) {
	var doc recordJSON
	if err := strictUnmarshalVersion(payload, "journal record", JournalVersion, &doc); err != nil {
		return nil, err
	}
	kind, err := fault.ParseKind(doc.Kind)
	if err != nil {
		return nil, fmt.Errorf("codec: record %d: %w", doc.Seq, err)
	}
	rec := &Record{
		Seq: doc.Seq,
		Event: fault.Event{At: sim.Time(doc.Now), Kind: kind, Node: doc.Node,
			Span: sim.Interval{Start: sim.Time(doc.SpanStart), End: sim.Time(doc.SpanEnd)}},
		Requeued: doc.Requeued,
		Dropped:  doc.Dropped,
	}
	if doc.Job != nil {
		j := jobFromWire(*doc.Job)
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("codec: record %d: %w", doc.Seq, err)
		}
		rec.Event.Job = j
	}
	if err := checkRecordEvent(doc.Seq, rec.Event, doc.Round != nil); err != nil {
		return nil, err
	}
	if doc.Node != "" && pool != nil && pool.ByName(doc.Node) == nil {
		return nil, fmt.Errorf("codec: record %d references unknown node %q", doc.Seq, doc.Node)
	}
	if doc.Round == nil {
		return rec, nil
	}
	r := &RoundRecord{
		Iteration: doc.Round.Iteration,
		Planned:   doc.Round.Planned,
		Epoch:     doc.Round.Epoch,
		TotalTime: sim.Duration(doc.Round.TotalTime),
		TotalCost: sim.Money(doc.Round.TotalCost),
		Stale:     doc.Round.Stale,
		Placed:    doc.Round.Placed,
	}
	for _, cj := range doc.Round.Choices {
		w := &slot.Window{JobName: cj.Job}
		for _, pj := range cj.Placements {
			if pool == nil {
				return nil, fmt.Errorf("codec: round record %d needs a pool to resolve nodes", doc.Seq)
			}
			node := pool.ByName(pj.Node)
			if node == nil {
				return nil, fmt.Errorf("codec: round record %d references unknown node %q", doc.Seq, pj.Node)
			}
			w.Placements = append(w.Placements, slot.Placement{
				Source: slot.Slot{
					Node:  node,
					Price: sim.Money(pj.Price),
					Span:  sim.Interval{Start: sim.Time(pj.SrcStart), End: sim.Time(pj.SrcEnd)},
				},
				Used: sim.Interval{Start: sim.Time(pj.UsedStart), End: sim.Time(pj.UsedEnd)},
			})
		}
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("codec: round record %d: %w", doc.Seq, err)
		}
		r.Choices = append(r.Choices, ChoiceRecord{Job: cj.Job, Window: w})
	}
	rec.Round = r
	return rec, nil
}

// strictUnmarshalVersion decodes a versioned payload of the named kind,
// rejecting unknown fields so a payload written by a richer format cannot
// half-load. The "v" field is checked first, so a payload another format
// version wrote is a VersionSkewError even when its fields no longer fit this
// version's schema; any other decode failure is a plain codec error.
func strictUnmarshalVersion(payload []byte, what string, want int, v any) error {
	var head struct {
		Version int `json:"v"`
	}
	if err := json.Unmarshal(payload, &head); err != nil {
		return fmt.Errorf("codec: %s: %w", what, err)
	}
	if head.Version != want {
		return &VersionSkewError{What: what, Got: head.Version, Want: want}
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("codec: %s: %w", what, err)
	}
	return nil
}
