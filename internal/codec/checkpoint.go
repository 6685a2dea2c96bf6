// Checkpoint documents: a complete snapshot of the continuous service —
// grid and scheduler state — written periodically so
// recovery replays only the journal suffix past the snapshot instead of the
// whole history. A checkpoint is one CRC frame behind its own magic header
// (its writer publishes it by renaming a fully written file over the old
// one, so the previous checkpoint stays intact until the new one is
// durable), so a torn checkpoint is detected exactly like a torn journal
// tail and recovery falls back to full replay. The grid section, nearly all
// of a checkpoint, has one encoder: AppendCheckpoint streams it from a live
// grid into a caller's buffer, and EncodeCheckpoint feeds it a GridState.
package codec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// CheckpointVersion identifies the checkpoint wire format; bump on
// incompatible changes. Recovery rejects any other version outright.
// Version 2 dropped the service layer's evaluation queue.
const CheckpointVersion = 2

// CheckpointMagic is the 8-byte header a checkpoint file starts with.
const CheckpointMagic = "ECOCKPT1"

// Checkpoint bundles the state layers with the journal position they
// correspond to. JournalOffset is the journal's byte length at snapshot
// time: recovery restores the checkpoint and replays records whose frames
// end after that offset. Seq mirrors the last journaled record's sequence
// number as a cross-check, and Rounds counts completed service rounds (it
// drives the checkpoint cadence after recovery).
type Checkpoint struct {
	Seq           uint64
	JournalOffset int64
	Rounds        int
	Grid          *gridsim.GridState
	Sched         *metasched.SchedulerState
	// Service is never encoded (the service layer holds no state of its
	// own); decoding sets it to the empty state.
	//
	// Deprecated: kept only so the frozen benchmark harness compiles
	// unchanged (ROADMAP item 1).
	Service *metasched.ServiceState
}

type checkpointJSON struct {
	Version       int            `json:"v"`
	Seq           uint64         `json:"seq"`
	JournalOffset int64          `json:"journal_offset"`
	Rounds        int            `json:"rounds"`
	Grid          gridStateJSON  `json:"grid"`
	Sched         schedStateJSON `json:"sched"`
}

type gridStateJSON struct {
	Now    int64           `json:"now"`
	Failed []failureJSON   `json:"failed,omitempty"`
	Tasks  []taskJSON      `json:"tasks,omitempty"`
	Income []domainSumJSON `json:"income,omitempty"`
}

type failureJSON struct {
	Node string `json:"node"`
	At   int64  `json:"at"`
}

type taskJSON struct {
	Name    string  `json:"name"`
	Node    string  `json:"node"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"`
	Local   bool    `json:"local,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Charged float64 `json:"charged,omitempty"`
}

type domainSumJSON struct {
	Domain string  `json:"domain"`
	Amount float64 `json:"amount"`
}

type schedStateJSON struct {
	Iter        int            `json:"iter"`
	SeededTo    int64          `json:"seeded_to"`
	Queue       []queuedJSON   `json:"queue,omitempty"`
	Placed      []jobJSON      `json:"placed,omitempty"`
	FirstSubmit []submitJSON   `json:"first_submit,omitempty"`
	Retry       []retryJSON    `json:"retry,omitempty"`
	Dropped     []dropJSON     `json:"dropped,omitempty"`
	Stats       retryStatsJSON `json:"stats"`
	ArrivalsRNG *uint64        `json:"arrivals_rng,omitempty"`
}

type queuedJSON struct {
	Job        jobJSON `json:"job"`
	Postponed  int     `json:"postponed,omitempty"`
	SubmitTick int64   `json:"submit_tick"`
	NotBefore  int64   `json:"not_before,omitempty"`
}

type submitJSON struct {
	Name string `json:"name"`
	At   int64  `json:"at"`
}

type retryJSON struct {
	Name        string `json:"name"`
	Attempts    int    `json:"attempts"`
	Relaxations int    `json:"relaxations,omitempty"`
}

type dropJSON struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

type retryStatsJSON struct {
	Cancelled        int `json:"cancelled,omitempty"`
	Requeued         int `json:"requeued,omitempty"`
	Relaxations      int `json:"relaxations,omitempty"`
	DroppedExhausted int `json:"dropped_exhausted,omitempty"`
	DroppedDeadline  int `json:"dropped_deadline,omitempty"`
}

// GridSource streams a grid's observable state: the live *gridsim.Grid,
// or a *gridsim.GridState snapshot of one.
type GridSource interface {
	WriteState(gridsim.StateWriter)
}

// EncodeCheckpoint serializes the checkpoint as magic + one CRC frame: it is
// AppendCheckpoint(nil, cp, cp.Grid). The payload is byte for byte the
// encoding/json document of checkpointJSON; DecodeCheckpoint uses the strict
// encoding/json decoder, an independent check on this encoder.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil || cp.Grid == nil {
		return nil, fmt.Errorf("codec: incomplete checkpoint")
	}
	return AppendCheckpoint(nil, cp, cp.Grid)
}

// AppendCheckpoint appends the encoding of cp to b and returns the extended
// buffer, streaming the grid section from grid — cp.Grid is not read. Fed
// the live grid, it builds no GridState; fed a buffer kept from the last
// call, it allocates nothing per task. A fee or income that JSON cannot
// represent (NaN, ±Inf) fails with encoding/json's error and a nil buffer.
//
// The output is the magic, a frame header filled in last, and the payload
// with the grid section streamed and the scheduler section encoded by
// encoding/json.
func AppendCheckpoint(b []byte, cp *Checkpoint, grid GridSource) ([]byte, error) {
	if cp == nil || grid == nil || cp.Sched == nil {
		return nil, fmt.Errorf("codec: incomplete checkpoint")
	}
	sched, err := json.Marshal(schedToWire(cp.Sched))
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	start := len(b)
	b = append(b, CheckpointMagic...)
	b = append(b, make([]byte, FrameOverhead)...)
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, CheckpointVersion, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, cp.Seq, 10)
	b = append(b, `,"journal_offset":`...)
	b = strconv.AppendInt(b, cp.JournalOffset, 10)
	b = append(b, `,"rounds":`...)
	b = strconv.AppendInt(b, int64(cp.Rounds), 10)
	b = append(b, `,"grid":`...)
	b, err = appendGrid(b, grid)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"sched":`...)
	b = append(b, sched...)
	b = append(b, '}')
	head := start + len(CheckpointMagic)
	payload := b[head+FrameOverhead:]
	binary.BigEndian.PutUint32(b[head:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[head+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// appendGrid appends the grid section grid streams, as encoding/json writes
// gridStateJSON: fields in declaration order, empty lists and zero omitempty
// values left out. It is the one grid-section encoder.
func appendGrid(b []byte, grid GridSource) ([]byte, error) {
	w := gridWriter{b: b}
	grid.WriteState(&w)
	if w.err != nil {
		return nil, w.err
	}
	if w.list != "" {
		w.b = append(w.b, ']')
	}
	return append(w.b, '}'), nil
}

// gridWriter is the gridsim.StateWriter appendGrid streams the grid
// through. A list is opened by its first element and closed by the next
// list's, or by appendGrid, so an empty list is never written.
type gridWriter struct {
	b []byte
	// list is the opening of the list being written, "" before the first.
	list string
	// err is the first float JSON cannot represent.
	err error
}

// element starts one element of the list that opens with open.
func (w *gridWriter) element(open string) {
	switch {
	case w.list == open:
		w.b = append(w.b, ',')
		return
	case w.list != "":
		w.b = append(w.b, ']')
	}
	w.list = open
	w.b = append(w.b, open...)
}

// float appends key and f, or records why f cannot be written.
func (w *gridWriter) float(key string, f sim.Money) {
	if err := checkFloat(float64(f)); err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.b = appendFloat(append(w.b, key...), float64(f))
}

func (w *gridWriter) Clock(now sim.Time) {
	w.b = strconv.AppendInt(append(w.b, `{"now":`...), int64(now), 10)
}

func (w *gridWriter) Failure(f gridsim.NodeFailureState) {
	w.element(`,"failed":[`)
	w.b = appendString(append(w.b, `{"node":`...), f.Node)
	w.b = strconv.AppendInt(append(w.b, `,"at":`...), int64(f.At), 10)
	w.b = append(w.b, '}')
}

func (w *gridWriter) Booking(t gridsim.TaskState) {
	w.element(`,"tasks":[`)
	w.b = appendString(append(w.b, `{"name":`...), t.Name)
	w.b = appendString(append(w.b, `,"node":`...), t.Node)
	w.b = strconv.AppendInt(append(w.b, `,"start":`...), int64(t.Span.Start), 10)
	w.b = strconv.AppendInt(append(w.b, `,"end":`...), int64(t.Span.End), 10)
	if t.Local {
		w.b = append(w.b, `,"local":true`...)
	}
	if t.Cost != 0 {
		w.float(`,"cost":`, t.Cost)
	}
	if t.Charged != 0 {
		w.float(`,"charged":`, t.Charged)
	}
	w.b = append(w.b, '}')
}

func (w *gridWriter) Ledger(in gridsim.DomainIncomeState) {
	w.element(`,"income":[`)
	w.b = appendString(append(w.b, `{"domain":`...), in.Domain)
	w.float(`,"amount":`, in.Amount)
	w.b = append(w.b, '}')
}

// plainByte marks the bytes encoding/json writes verbatim inside a string:
// printable ASCII other than the quote, the backslash, and the HTML-escaped
// <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// plainString reports whether encoding/json writes s verbatim between quotes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// appendString appends s as encoding/json encodes it. Plain strings are
// copied; anything else — escapes, non-ASCII, invalid UTF-8 — goes through
// json.Marshal itself, so the rare case shares its rules exactly.
func appendString(b []byte, s string) []byte {
	if plainString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// checkFloat rejects the values encoding/json cannot represent, with its error.
func checkFloat(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("codec: %w", &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
	}
	return nil
}

// appendFloat appends a finite f as encoding/json encodes a float64: the
// shortest 'f' form, or the 'e' form outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// schedToWire converts the scheduler state to its wire form.
func schedToWire(s *metasched.SchedulerState) schedStateJSON {
	w := schedStateJSON{Iter: s.Iter, SeededTo: int64(s.SeededTo)}
	for _, q := range s.Queue {
		w.Queue = append(w.Queue, queuedJSON{
			Job:        jobToWire(q.Job),
			Postponed:  q.Postponed,
			SubmitTick: int64(q.SubmitTick),
			NotBefore:  int64(q.NotBefore),
		})
	}
	for _, j := range s.Placed {
		w.Placed = append(w.Placed, jobToWire(j))
	}
	for _, f := range s.FirstSubmit {
		w.FirstSubmit = append(w.FirstSubmit, submitJSON{Name: f.Name, At: int64(f.At)})
	}
	for _, r := range s.Retry {
		w.Retry = append(w.Retry, retryJSON{Name: r.Name, Attempts: r.Attempts, Relaxations: r.Relaxations})
	}
	for _, d := range s.Dropped {
		w.Dropped = append(w.Dropped, dropJSON{Name: d.Name, Reason: d.Reason})
	}
	w.Stats = retryStatsJSON{
		Cancelled:        s.Stats.Cancelled,
		Requeued:         s.Stats.Requeued,
		Relaxations:      s.Stats.Relaxations,
		DroppedExhausted: s.Stats.DroppedExhausted,
		DroppedDeadline:  s.Stats.DroppedDeadline,
	}
	w.ArrivalsRNG = s.ArrivalsRNG
	return w
}

// DecodeCheckpoint parses a checkpoint file's bytes. Structural damage — a
// missing or wrong magic, a torn or checksum-corrupt frame, trailing bytes —
// returns an error wrapping ErrTorn, which recovery absorbs by falling back
// to full journal replay. Version skew is a hard error: it means an
// incompatible binary wrote the checkpoint, and ignoring it silently would
// mask an operational mistake.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(CheckpointMagic) || string(data[:len(CheckpointMagic)]) != CheckpointMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrTorn)
	}
	payloads, ends, _ := ScanFrames(data[len(CheckpointMagic):])
	if len(payloads) != 1 || len(CheckpointMagic)+ends[len(ends)-1] != len(data) {
		return nil, fmt.Errorf("%w: checkpoint is not exactly one intact frame", ErrTorn)
	}
	var doc checkpointJSON
	if err := strictUnmarshalVersion(payloads[0], "checkpoint", CheckpointVersion, &doc); err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		Seq:           doc.Seq,
		JournalOffset: doc.JournalOffset,
		Rounds:        doc.Rounds,
		Grid:          &gridsim.GridState{Now: sim.Time(doc.Grid.Now)},
		Sched: &metasched.SchedulerState{
			Iter:     doc.Sched.Iter,
			SeededTo: sim.Time(doc.Sched.SeededTo),
			Stats: metasched.RetryStats{
				Cancelled:        doc.Sched.Stats.Cancelled,
				Requeued:         doc.Sched.Stats.Requeued,
				Relaxations:      doc.Sched.Stats.Relaxations,
				DroppedExhausted: doc.Sched.Stats.DroppedExhausted,
				DroppedDeadline:  doc.Sched.Stats.DroppedDeadline,
			},
			ArrivalsRNG: doc.Sched.ArrivalsRNG,
		},
		Service: &metasched.ServiceState{},
	}
	for _, f := range doc.Grid.Failed {
		cp.Grid.Failed = append(cp.Grid.Failed, gridsim.NodeFailureState{Node: f.Node, At: sim.Time(f.At)})
	}
	for _, t := range doc.Grid.Tasks {
		cp.Grid.Tasks = append(cp.Grid.Tasks, gridsim.TaskState{
			Name:    t.Name,
			Node:    t.Node,
			Span:    sim.Interval{Start: sim.Time(t.Start), End: sim.Time(t.End)},
			Local:   t.Local,
			Cost:    sim.Money(t.Cost),
			Charged: sim.Money(t.Charged),
		})
	}
	for _, in := range doc.Grid.Income {
		cp.Grid.Income = append(cp.Grid.Income, gridsim.DomainIncomeState{Domain: in.Domain, Amount: sim.Money(in.Amount)})
	}
	for _, q := range doc.Sched.Queue {
		cp.Sched.Queue = append(cp.Sched.Queue, metasched.QueuedState{
			Job:        jobFromWire(q.Job),
			Postponed:  q.Postponed,
			SubmitTick: sim.Time(q.SubmitTick),
			NotBefore:  sim.Time(q.NotBefore),
		})
	}
	for _, j := range doc.Sched.Placed {
		cp.Sched.Placed = append(cp.Sched.Placed, jobFromWire(j))
	}
	for _, f := range doc.Sched.FirstSubmit {
		cp.Sched.FirstSubmit = append(cp.Sched.FirstSubmit, metasched.JobSubmitState{Name: f.Name, At: sim.Time(f.At)})
	}
	for _, r := range doc.Sched.Retry {
		cp.Sched.Retry = append(cp.Sched.Retry, metasched.JobRetryState{Name: r.Name, Attempts: r.Attempts, Relaxations: r.Relaxations})
	}
	for _, d := range doc.Sched.Dropped {
		cp.Sched.Dropped = append(cp.Sched.Dropped, metasched.JobDropState{Name: d.Name, Reason: d.Reason})
	}
	return cp, nil
}
