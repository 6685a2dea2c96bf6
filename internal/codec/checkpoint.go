// Checkpoint documents: a complete snapshot of the continuous service —
// grid and scheduler state — written periodically so
// recovery replays only the journal suffix past the snapshot instead of the
// whole history. A checkpoint is one CRC frame behind its own magic header
// (temp-file + rename on write keeps the previous checkpoint intact until
// the new one is durable), so a torn checkpoint is detected exactly like a
// torn journal tail and recovery falls back to full replay.
package codec

import (
	"encoding/json"
	"fmt"

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

// EncodeCheckpoint serializes the checkpoint as magic + one CRC frame.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil || cp.Grid == nil || cp.Sched == nil {
		return nil, fmt.Errorf("codec: incomplete checkpoint")
	}
	doc := checkpointJSON{
		Version:       CheckpointVersion,
		Seq:           cp.Seq,
		JournalOffset: cp.JournalOffset,
		Rounds:        cp.Rounds,
	}
	doc.Grid.Now = int64(cp.Grid.Now)
	for _, f := range cp.Grid.Failed {
		doc.Grid.Failed = append(doc.Grid.Failed, failureJSON{Node: f.Node, At: int64(f.At)})
	}
	for _, t := range cp.Grid.Tasks {
		doc.Grid.Tasks = append(doc.Grid.Tasks, taskJSON{
			Name:    t.Name,
			Node:    t.Node,
			Start:   int64(t.Span.Start),
			End:     int64(t.Span.End),
			Local:   t.Local,
			Cost:    float64(t.Cost),
			Charged: float64(t.Charged),
		})
	}
	for _, in := range cp.Grid.Income {
		doc.Grid.Income = append(doc.Grid.Income, domainSumJSON{Domain: in.Domain, Amount: float64(in.Amount)})
	}
	doc.Sched.Iter = cp.Sched.Iter
	doc.Sched.SeededTo = int64(cp.Sched.SeededTo)
	for _, q := range cp.Sched.Queue {
		doc.Sched.Queue = append(doc.Sched.Queue, queuedJSON{
			Job:        jobToWire(q.Job),
			Postponed:  q.Postponed,
			SubmitTick: int64(q.SubmitTick),
			NotBefore:  int64(q.NotBefore),
		})
	}
	for _, j := range cp.Sched.Placed {
		doc.Sched.Placed = append(doc.Sched.Placed, jobToWire(j))
	}
	for _, f := range cp.Sched.FirstSubmit {
		doc.Sched.FirstSubmit = append(doc.Sched.FirstSubmit, submitJSON{Name: f.Name, At: int64(f.At)})
	}
	for _, r := range cp.Sched.Retry {
		doc.Sched.Retry = append(doc.Sched.Retry, retryJSON{Name: r.Name, Attempts: r.Attempts, Relaxations: r.Relaxations})
	}
	for _, d := range cp.Sched.Dropped {
		doc.Sched.Dropped = append(doc.Sched.Dropped, dropJSON{Name: d.Name, Reason: d.Reason})
	}
	doc.Sched.Stats = retryStatsJSON{
		Cancelled:        cp.Sched.Stats.Cancelled,
		Requeued:         cp.Sched.Stats.Requeued,
		Relaxations:      cp.Sched.Stats.Relaxations,
		DroppedExhausted: cp.Sched.Stats.DroppedExhausted,
		DroppedDeadline:  cp.Sched.Stats.DroppedDeadline,
	}
	doc.Sched.ArrivalsRNG = cp.Sched.ArrivalsRNG
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	out := make([]byte, 0, len(CheckpointMagic)+frameHeaderLen+len(payload))
	out = append(out, CheckpointMagic...)
	out = append(out, Frame(payload)...)
	return out, nil
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
