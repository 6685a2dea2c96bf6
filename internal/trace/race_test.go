package trace

import (
	"sync"
	"testing"
)

// TestRecorderConcurrentEmitters hammers one recorder from many goroutines —
// emitters, readers, and iteration stampers at once — and then checks the
// ring's accounting survived intact: every write was counted, the retained
// events are exactly the newest ones, and sequence numbers come out strictly
// increasing. Run under -race this doubles as the data-race proof for the
// parallel search pipeline's tracing path.
func TestRecorderConcurrentEmitters(t *testing.T) {
	const (
		emitters  = 8
		perEmit   = 500
		capacity  = 128
		readers   = 3
		iterBumps = 50
	)
	r := NewRecorder(capacity)

	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				r.Record(WindowFound, "job", "emitter %d event %d", g, i)
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.Events()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterBumps; i++ {
			r.BeginIteration(i, 0)
		}
	}()
	wg.Wait()

	total := emitters * perEmit
	if got := len(r.Events()); got != capacity {
		t.Fatalf("retained %d events, want full ring of %d", got, capacity)
	}
	events := r.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("retained events not consecutive: seq %d follows %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if events[len(events)-1].Seq != total {
		t.Fatalf("newest retained seq %d, want %d (no write lost)", events[len(events)-1].Seq, total)
	}
}

// TestRecorderNilAndZeroUnderConcurrency pins the zero-cost paths: a nil and
// a zero-capacity recorder must stay safe when called from many goroutines.
func TestRecorderNilAndZeroUnderConcurrency(t *testing.T) {
	var nilRec *Recorder
	zero := NewRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				nilRec.Record(Committed, "j", "x")
				zero.Record(Committed, "j", "x")
				_ = nilRec.Events()
				_ = zero.Events()
			}
		}()
	}
	wg.Wait()
	if len(nilRec.Events()) != 0 || len(zero.Events()) != 0 {
		t.Fatal("disabled recorders retained events")
	}
}
