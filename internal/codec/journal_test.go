package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

func journalPool(t testing.TB) *resource.Pool {
	t.Helper()
	pool, err := resource.NewPool([]*resource.Node{
		{Name: "n1", Performance: 1, Price: 2, Domain: "west"},
		{Name: "n2", Performance: 2, Price: 3, Domain: "east"},
		{Name: "n3", Performance: 1.5, Price: 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func journalJob(name string) *job.Job {
	return &job.Job{Name: name, Priority: 2, Request: job.ResourceRequest{
		Nodes: 2, Time: 40, MinPerformance: 1, MaxPrice: 6, BudgetFactor: 0.9,
		Needs:    resource.Requirements{MinRAMMB: 1024, OS: "linux", Tags: []string{"gpu", "fast"}},
		Deadline: 900,
	}}
}

// sampleRecords returns one record of every kind, exercising every field.
func sampleRecords(t testing.TB, pool *resource.Pool) []*Record {
	t.Helper()
	w := &slot.Window{JobName: "j1", Placements: []slot.Placement{
		{
			Source: slot.Slot{Node: pool.ByName("n1"), Price: 2, Span: sim.Interval{Start: 0, End: 120}},
			Used:   sim.Interval{Start: 10, End: 50},
		},
		{
			Source: slot.Slot{Node: pool.ByName("n2"), Price: 3.5, Span: sim.Interval{Start: 10, End: 90}},
			Used:   sim.Interval{Start: 10, End: 50},
		},
	}}
	return []*Record{
		{Seq: 1, Event: fault.Event{At: 5, Kind: fault.Submit, Job: journalJob("j1")}},
		{Seq: 2, Event: fault.Event{At: 5, Kind: fault.Round}, Round: &RoundRecord{
			Iteration: 1, Planned: true, Epoch: 7,
			TotalTime: 40, TotalCost: 220.5,
			Choices: []ChoiceRecord{{Job: "j1", Window: w}},
			Placed:  []string{"j1"},
		}},
		{Seq: 3, Event: fault.Event{At: 20, Kind: fault.Fail, Node: "n1"},
			Requeued: []string{"j1"}, Dropped: []string{"j9"}},
		{Seq: 4, Event: fault.Event{At: 40, Kind: fault.Recover, Node: "n1"}},
		{Seq: 5, Event: fault.Event{At: 60, Kind: fault.Revoke, Node: "n2",
			Span: sim.Interval{Start: 60, End: 80}}, Requeued: []string{"j1"}},
		{Seq: 6, Event: fault.Event{At: 60, Kind: fault.Round}, Round: &RoundRecord{
			Iteration: 2, Planned: false,
			Stale: []string{"j1"},
		}},
	}
}

// TestRecordRoundTripEveryKind: every journaled record kind survives
// encode → frame-scan → decode with all fields intact.
func TestRecordRoundTripEveryKind(t *testing.T) {
	pool := journalPool(t)
	records := sampleRecords(t, pool)
	var journal []byte
	for _, rec := range records {
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("encode seq %d: %v", rec.Seq, err)
		}
		journal = append(journal, frame...)
	}
	payloads, ends, validLen := ScanFrames(journal)
	if len(payloads) != len(records) || validLen != len(journal) {
		t.Fatalf("scan found %d frames over %d bytes (want %d over %d)",
			len(payloads), validLen, len(records), len(journal))
	}
	if ends[len(ends)-1] != len(journal) {
		t.Fatalf("last frame ends at %d, journal is %d bytes", ends[len(ends)-1], len(journal))
	}
	for i, payload := range payloads {
		got, err := DecodeRecord(payload, pool)
		if err != nil {
			t.Fatalf("decode seq %d: %v", records[i].Seq, err)
		}
		want := records[i]
		ge, we := got.Event, want.Event
		ge.Job, we.Job = nil, nil
		if got.Seq != want.Seq || ge != we ||
			!reflect.DeepEqual(got.Requeued, want.Requeued) ||
			!reflect.DeepEqual(got.Dropped, want.Dropped) {
			t.Errorf("seq %d header changed:\n got %+v\nwant %+v", want.Seq, got, want)
		}
		if want.Event.Job != nil {
			if got.Event.Job == nil || !reflect.DeepEqual(*got.Event.Job, *want.Event.Job) {
				t.Errorf("seq %d job changed:\n got %+v\nwant %+v", want.Seq, got.Event.Job, want.Event.Job)
			}
		}
		if want.Round != nil {
			if got.Round == nil {
				t.Fatalf("seq %d lost its round payload", want.Seq)
			}
			gr, wr := got.Round, want.Round
			if gr.Iteration != wr.Iteration || gr.Planned != wr.Planned ||
				gr.Epoch != wr.Epoch || gr.TotalTime != wr.TotalTime || gr.TotalCost != wr.TotalCost ||
				!reflect.DeepEqual(gr.Stale, wr.Stale) || !reflect.DeepEqual(gr.Placed, wr.Placed) {
				t.Errorf("seq %d round changed:\n got %+v\nwant %+v", want.Seq, gr, wr)
			}
			if len(gr.Choices) != len(wr.Choices) {
				t.Fatalf("seq %d: %d choices, want %d", want.Seq, len(gr.Choices), len(wr.Choices))
			}
			for k := range wr.Choices {
				if gr.Choices[k].Job != wr.Choices[k].Job ||
					gr.Choices[k].Window.String() != wr.Choices[k].Window.String() {
					t.Errorf("seq %d choice %d changed: %v vs %v",
						want.Seq, k, gr.Choices[k].Window, wr.Choices[k].Window)
				}
			}
		}
	}
}

// TestScanFramesStopsAtTornTail: truncating a journal at every byte offset
// yields exactly the complete-frame prefix — never a partial or corrupt
// record, never an error.
func TestScanFramesStopsAtTornTail(t *testing.T) {
	pool := journalPool(t)
	var journal []byte
	var bounds []int
	for _, rec := range sampleRecords(t, pool) {
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(journal, frame...)
		bounds = append(bounds, len(journal))
	}
	for cut := 0; cut <= len(journal); cut++ {
		payloads, _, validLen := ScanFrames(journal[:cut])
		wantFrames := 0
		for _, b := range bounds {
			if b <= cut {
				wantFrames++
			}
		}
		wantLen := 0
		if wantFrames > 0 {
			wantLen = bounds[wantFrames-1]
		}
		if len(payloads) != wantFrames || validLen != wantLen {
			t.Fatalf("cut %d: got %d frames valid to %d, want %d frames valid to %d",
				cut, len(payloads), validLen, wantFrames, wantLen)
		}
	}
}

// TestScanFramesRejectsCorruption: a flipped payload bit or an oversized
// length field ends the valid prefix at the damaged frame.
func TestScanFramesRejectsCorruption(t *testing.T) {
	frame1, err := EncodeRecord(&Record{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Fail, Node: "n1"}})
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := EncodeRecord(&Record{Seq: 2, Event: fault.Event{At: 2, Kind: fault.Recover, Node: "n1"}})
	if err != nil {
		t.Fatal(err)
	}
	journal := append(append([]byte{}, frame1...), frame2...)

	flipped := append([]byte{}, journal...)
	flipped[len(frame1)+FrameOverhead] ^= 0x40 // first payload byte of frame 2
	payloads, _, validLen := ScanFrames(flipped)
	if len(payloads) != 1 || validLen != len(frame1) {
		t.Errorf("bit flip: got %d frames valid to %d, want 1 valid to %d",
			len(payloads), validLen, len(frame1))
	}

	huge := append([]byte{}, frame1...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	payloads, _, validLen = ScanFrames(huge)
	if len(payloads) != 1 || validLen != len(frame1) {
		t.Errorf("oversized length: got %d frames valid to %d, want 1 valid to %d",
			len(payloads), validLen, len(frame1))
	}
}

// TestDecodeRecordRejectsBadPayloads: version skew, unknown fields, unknown
// kinds, unknown nodes, and malformed windows each fail with a clear error.
func TestDecodeRecordRejectsBadPayloads(t *testing.T) {
	pool := journalPool(t)
	cases := []struct {
		name    string
		payload string
		skew    bool
	}{
		{"garbage", `not json`, false},
		{"version skew", `{"v": 99, "seq": 1, "kind": "fail", "now": 0, "node": "n1"}`, true},
		{"version 1 round", `{"v": 1, "seq": 1, "kind": "round", "now": 0, "round": {"iteration": 1, "tick": true}}`, true},
		{"unknown field", `{"v": 2, "seq": 1, "kind": "fail", "now": 0, "node": "n1", "bogus": 1}`, false},
		{"unknown kind", `{"v": 2, "seq": 1, "kind": "explode", "now": 0}`, false},
		{"fail without node", `{"v": 2, "seq": 1, "kind": "fail", "now": 0}`, false},
		{"unknown node", `{"v": 2, "seq": 1, "kind": "fail", "now": 0, "node": "ghost"}`, false},
		{"submit without job", `{"v": 2, "seq": 1, "kind": "submit", "now": 0}`, false},
		{"invalid job", `{"v": 2, "seq": 1, "kind": "submit", "now": 0,
			"job": {"name": "j", "priority": 1, "nodes": 0, "time": 10, "min_performance": 1, "max_price": 1}}`, false},
		{"round without payload", `{"v": 2, "seq": 1, "kind": "round", "now": 0}`, false},
		{"round unknown node", `{"v": 2, "seq": 1, "kind": "round", "now": 0,
			"round": {"iteration": 1, "planned": true, "choices": [{"job": "j",
			"placements": [{"node": "ghost", "price": 1, "src_start": 0, "src_end": 10, "used_start": 0, "used_end": 10}]}]}}`, false},
		{"round bad window", `{"v": 2, "seq": 1, "kind": "round", "now": 0,
			"round": {"iteration": 1, "planned": true, "choices": [{"job": "j",
			"placements": [{"node": "n1", "price": 1, "src_start": 0, "src_end": 10, "used_start": 5, "used_end": 20}]}]}}`, false},
	}
	for _, c := range cases {
		_, err := DecodeRecord([]byte(c.payload), pool)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var skew *VersionSkewError
		if got := errors.As(err, &skew); got != c.skew {
			t.Errorf("%s: version-skew classification %t, want %t (err: %v)", c.name, got, c.skew, err)
		}
	}
}

// TestDecodeRecordValidatesEvents: every event record passes through
// fault.Event.Validate, and no record may carry a negative clock, so a bad
// event fails at decode rather than deep in replay (an inverted span would
// reach gridsim.RevokeInterval).
func TestDecodeRecordValidatesEvents(t *testing.T) {
	pool := journalPool(t)
	cases := []struct{ name, payload string }{
		{"revoke with inverted span", `{"v": 2, "seq": 1, "kind": "revoke", "now": 0, "node": "n1", "span_start": 9, "span_end": 3}`},
		{"revoke without span", `{"v": 2, "seq": 1, "kind": "revoke", "now": 0, "node": "n1"}`},
		{"fail with a span", `{"v": 2, "seq": 1, "kind": "fail", "now": 0, "node": "n1", "span_start": 3, "span_end": 9}`},
		{"fail at negative time", `{"v": 2, "seq": 1, "kind": "fail", "now": -7, "node": "n1"}`},
		{"submit at negative time", `{"v": 2, "seq": 1, "kind": "submit", "now": -1,
			"job": {"name": "j", "priority": 1, "nodes": 1, "time": 10, "min_performance": 1, "max_price": 1}}`},
		{"round at negative time", `{"v": 2, "seq": 1, "kind": "round", "now": -1, "round": {"iteration": 1}}`},
		{"event class on the wire", `{"v": 2, "seq": 1, "kind": "event", "now": 0, "node": "n1"}`},
		{"submit naming a node", `{"v": 2, "seq": 1, "kind": "submit", "now": 0, "node": "n1",
			"job": {"name": "j", "priority": 1, "nodes": 1, "time": 10, "min_performance": 1, "max_price": 1}}`},
		{"round naming a node", `{"v": 2, "seq": 1, "kind": "round", "now": 0, "node": "n1", "round": {"iteration": 1}}`},
		{"fail with a job", `{"v": 2, "seq": 1, "kind": "fail", "now": 0, "node": "n1",
			"job": {"name": "j", "priority": 1, "nodes": 1, "time": 10, "min_performance": 1, "max_price": 1}}`},
		{"fail with a round payload", `{"v": 2, "seq": 1, "kind": "fail", "now": 0, "node": "n1", "round": {"iteration": 1}}`},
	}
	for _, c := range cases {
		if _, err := DecodeRecord([]byte(c.payload), pool); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestEncodeRecordRejectsIncomplete: structurally incomplete records are
// rejected at write time, before they can poison a journal.
func TestEncodeRecordRejectsIncomplete(t *testing.T) {
	cases := []*Record{
		nil,
		{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Submit}},                                                                         // submit without job
		{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Fail}},                                                                           // event without node
		{Seq: 1, Event: fault.Event{Kind: fault.Fail, Node: "n1", Span: sim.Interval{Start: 1, End: 2}}},                                // invalid event
		{Seq: 1, Event: fault.Event{At: fault.Untimed, Kind: fault.Fail, Node: "n1"}},                                                   // untimed event
		{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Round}},                                                                          // round without payload
		{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Fail, Node: "n1"}, Round: &RoundRecord{Iteration: 1}},                            // payload on a non-round
		{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Kind(99)}},                                                                       // unknown kind
		{Seq: 1, Event: fault.Event{At: 1, Kind: fault.Round}, Round: &RoundRecord{Planned: true, Choices: []ChoiceRecord{{Job: "j"}}}}, // choice without window
	}
	for i, rec := range cases {
		if _, err := EncodeRecord(rec); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

// sampleCheckpoint builds a checkpoint exercising every wire field.
func sampleCheckpoint() *Checkpoint {
	rng := uint64(0x1234_5678_9abc_def0)
	return &Checkpoint{
		Seq:           42,
		JournalOffset: 8192,
		Rounds:        7,
		Grid: &gridsim.GridState{
			Now:    150,
			Failed: []gridsim.NodeFailureState{{Node: "n1", At: 100}},
			Tasks: []gridsim.TaskState{
				{Name: "j1", Node: "n2", Span: sim.Interval{Start: 150, End: 190}, Cost: 120, Charged: 120},
				{Name: "local@0-30", Node: "n3", Span: sim.Interval{Start: 0, End: 30}, Local: true},
			},
			Income: []gridsim.DomainIncomeState{{Domain: "east", Amount: 120}, {Domain: "west", Amount: 33.25}},
		},
		Sched: &metasched.SchedulerState{
			Iter:     3,
			SeededTo: 300,
			Queue: []metasched.QueuedState{
				{Job: journalJob("j2"), Postponed: 1, SubmitTick: 150, NotBefore: 175},
			},
			Placed:      []*job.Job{journalJob("j1")},
			FirstSubmit: []metasched.JobSubmitState{{Name: "j1", At: 0}, {Name: "j2", At: 150}},
			Retry:       []metasched.JobRetryState{{Name: "j2", Attempts: 2, Relaxations: 1}},
			Dropped:     []metasched.JobDropState{{Name: "j9", Reason: "retries exhausted"}},
			Stats:       metasched.RetryStats{Cancelled: 3, Requeued: 2, Relaxations: 1, DroppedExhausted: 1},
			ArrivalsRNG: &rng,
		},
		Service: &metasched.ServiceState{},
	}
}

// TestCheckpointRoundTrip: a checkpoint survives encode → decode with every
// field of every layer intact.
func TestCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("checkpoint changed:\n got %+v\nwant %+v", got, cp)
	}
}

// TestCheckpointRejectsVersionSkew: a checkpoint from an incompatible format
// version is a hard VersionSkewError, not a torn-file fallback — including a
// version-1 checkpoint, whose service section this version no longer has.
func TestCheckpointRejectsVersionSkew(t *testing.T) {
	for _, c := range []struct {
		version int
		payload string
	}{
		{99, `{"v": 99, "seq": 1, "journal_offset": 0, "rounds": 0,
			"grid": {"now": 0}, "sched": {"iter": 0, "seeded_to": 0, "stats": {}}}`},
		{1, `{"v": 1, "seq": 1, "journal_offset": 0, "rounds": 0,
			"grid": {"now": 0}, "sched": {"iter": 0, "seeded_to": 0, "stats": {}}, "service": {"next_id": 0}}`},
	} {
		data := append([]byte(CheckpointMagic), Frame([]byte(c.payload))...)
		_, err := DecodeCheckpoint(data)
		var skew *VersionSkewError
		if !errors.As(err, &skew) {
			t.Fatalf("v%d: want VersionSkewError, got %v", c.version, err)
		}
		if skew.Got != c.version || skew.Want != CheckpointVersion {
			t.Errorf("skew error carries %d/%d, want %d/%d", skew.Got, skew.Want, c.version, CheckpointVersion)
		}
		if errors.Is(err, ErrTorn) {
			t.Error("version skew must not classify as torn")
		}
	}
}

// TestCheckpointRejectsTorn: structural damage — bad magic, truncation,
// trailing bytes, flipped bits — classifies as ErrTorn so recovery can fall
// back to full replay.
func TestCheckpointRejectsTorn(t *testing.T) {
	good, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("WRONGMAG"), good[len(CheckpointMagic):]...),
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 0xAA),
		"double":     append(append([]byte{}, good...), good[len(CheckpointMagic):]...),
		"magic only": []byte(CheckpointMagic),
	}
	flipped := append([]byte{}, good...)
	flipped[len(good)/2] ^= 0x01
	cases["bit flip"] = flipped
	for name, data := range cases {
		_, err := DecodeCheckpoint(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrTorn) && !bytes.Contains([]byte(err.Error()), []byte("codec")) {
			t.Errorf("%s: unclassified error %v", name, err)
		}
	}
	if _, err := DecodeCheckpoint(cases["bad magic"]); !errors.Is(err, ErrTorn) {
		t.Errorf("bad magic must be ErrTorn, got %v", err)
	}
	if _, err := DecodeCheckpoint(cases["truncated"]); !errors.Is(err, ErrTorn) {
		t.Errorf("truncation must be ErrTorn, got %v", err)
	}
}

// TestEncodeCheckpointRejectsIncomplete guards the write path.
func TestEncodeCheckpointRejectsIncomplete(t *testing.T) {
	if _, err := EncodeCheckpoint(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if _, err := EncodeCheckpoint(&Checkpoint{}); err == nil {
		t.Error("empty checkpoint accepted")
	}
}
