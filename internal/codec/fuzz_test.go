package codec

import (
	"bytes"
	"reflect"
	"testing"

	"ecosched/internal/sim"
	"ecosched/internal/workload"
)

// FuzzRoundTrip feeds arbitrary bytes to the scenario decoder and, for every
// input the decoder accepts, requires the decode -> encode -> decode cycle to
// be a fixed point: re-encoding the re-decoded scenario must reproduce the
// first encoding byte for byte. Together with the constructors' validation
// this proves the wire format loses no information the scheduler can observe
// and that the decoder never accepts a document it cannot faithfully emit.
func FuzzRoundTrip(f *testing.F) {
	// Seed the corpus with one genuine encoding of a generated scenario
	// (kept to a single seed: the ~30 KB documents dominate mutation cost)
	// plus a few small handcrafted edge documents.
	for seed := uint64(1); seed <= 1; seed++ {
		sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(seed))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeScenario(&buf, sc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"version":1,"nodes":[],"slots":[],"jobs":[]}`))
	f.Add([]byte(`{"version":1,"nodes":[{"name":"a","performance":1,"price":1}],` +
		`"slots":[{"node":0,"price":1,"start":0,"end":10}],` +
		`"jobs":[{"name":"j","priority":1,"nodes":1,"time":5,"min_performance":1,"max_price":2}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var first bytes.Buffer
		if err := EncodeScenario(&first, sc); err != nil {
			t.Fatalf("decoded scenario failed to encode: %v", err)
		}
		sc2, err := DecodeScenario(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own encoding failed to decode: %v", err)
		}
		var second bytes.Buffer
		if err := EncodeScenario(&second, sc2); err != nil {
			t.Fatalf("re-decoded scenario failed to encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not a fixed point\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
		}
		// Everything the decoder accepts must satisfy the scheduler's
		// structural invariants.
		if err := sc2.Slots.Validate(); err != nil {
			t.Fatalf("decoded slot list invalid: %v", err)
		}
		if sc.Slots.OverlapOnSameNode() {
			t.Fatal("decoder accepted slots that overlap on one node")
		}
	})
}

// FuzzRecord feeds arbitrary payloads to the journal record decoder. Every
// payload it accepts must hold only valid events (fault.Event.Validate), and
// encode → decode must give back the same record, up to empty lists, which
// the encoder omits and the decoder then returns as nil.
func FuzzRecord(f *testing.F) {
	pool := journalPool(f)
	for _, rec := range sampleRecords(f, pool) {
		frame, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[FrameOverhead:])
	}
	f.Add([]byte(`{"v":2,"seq":1,"kind":"revoke","now":0,"node":"n1","span_start":9,"span_end":3}`))
	f.Add([]byte(`{"v":2,"seq":1,"kind":"fail","now":-7,"node":"n1","requeued":[],"dropped":[]}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload, pool)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if err := rec.Event.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid event: %v", err)
		}
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record failed to encode: %v", err)
		}
		back, err := DecodeRecord(frame[FrameOverhead:], pool)
		if err != nil {
			t.Fatalf("own encoding failed to decode: %v\n%s", err, frame[FrameOverhead:])
		}
		canonRecord(rec)
		canonRecord(back)
		if !reflect.DeepEqual(rec, back) {
			t.Fatalf("encode → decode changed the record\n got %+v\nwant %+v", back, rec)
		}
	})
}

// canonRecord maps the record's empty lists to nil.
func canonRecord(r *Record) {
	nilEmpty := func(s []string) []string {
		if len(s) == 0 {
			return nil
		}
		return s
	}
	r.Requeued, r.Dropped = nilEmpty(r.Requeued), nilEmpty(r.Dropped)
	if r.Event.Job != nil {
		r.Event.Job.Request.Needs.Tags = nilEmpty(r.Event.Job.Request.Needs.Tags)
	}
	if r.Round != nil {
		r.Round.Stale, r.Round.Placed = nilEmpty(r.Round.Stale), nilEmpty(r.Round.Placed)
	}
}
