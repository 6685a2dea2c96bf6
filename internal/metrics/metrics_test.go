package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("a/b_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // monotone: negative deltas ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value %d, want 5", got)
	}
	if r.Counter("a/b_total") != c {
		t.Fatal("same name returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("queue/depth")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge value %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []int64{10, 20, 40})
	for _, v := range []int64{1, 10, 11, 20, 39, 40, 41, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count %d, want 8", got)
	}
	if got := h.Sum(); got != 1+10+11+20+39+40+41+1000 {
		t.Fatalf("sum %d", got)
	}
	snap := r.Snapshot()
	hv := snap.Histograms[0]
	// le10: {1,10}; le20: {11,20}; le40: {39,40}; +inf: {41,1000}.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d count %d, want %d (counts %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	// Bounds are fixed by the first registration.
	if again := r.Histogram("lat", []int64{1}); again != h {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestInvalidRegistrationsPanic(t *testing.T) {
	r := New()
	for name, fn := range map[string]func(){
		"empty name":          func() { r.Counter("") },
		"whitespace name":     func() { r.Gauge("a b") },
		"no bounds":           func() { r.Histogram("h", nil) },
		"non-increasing":      func() { r.Histogram("h2", []int64{5, 5}) },
		"decreasing bounds":   func() { r.Histogram("h3", []int64{5, 1}) },
		"bad exp buckets":     func() { ExpBuckets(0, 2, 3) },
		"bad linear buckets":  func() { LinearBuckets(1, 0, 3) },
		"zero bucket count":   func() { ExpBuckets(1, 2, 0) },
		"factor below double": func() { ExpBuckets(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBucketHelpers(t *testing.T) {
	if got, want := ExpBuckets(8, 2, 4), []int64{8, 16, 32, 64}; !equalInts(got, want) {
		t.Fatalf("ExpBuckets %v, want %v", got, want)
	}
	if got, want := LinearBuckets(1, 2, 3), []int64{1, 3, 5}; !equalInts(got, want) {
		t.Fatalf("LinearBuckets %v, want %v", got, want)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotStableEncoding pins the byte-exact text format and the
// sorted-name determinism of a snapshot: registration order must not show in
// the output.
func TestSnapshotStableEncoding(t *testing.T) {
	build := func(reversed bool) *Registry {
		r := New()
		names := []string{"a/first_total", "z/last_total", "m/middle_total"}
		if reversed {
			names = []string{"m/middle_total", "z/last_total", "a/first_total"}
		}
		for i, n := range names {
			r.Counter(n).Add(int64(i) * 0) // create in varying order
		}
		r.Counter("a/first_total").Add(1)
		r.Counter("z/last_total").Add(2)
		r.Counter("m/middle_total").Add(3)
		r.Gauge("g/depth").Set(9)
		r.Histogram("h/scan", []int64{2, 8}).Observe(5)
		return r
	}
	want := "counter a/first_total 1\n" +
		"counter m/middle_total 3\n" +
		"counter z/last_total 2\n" +
		"gauge g/depth 9\n" +
		"histogram h/scan count=1 sum=5 le2=0 le8=1 +inf=0\n"
	for _, reversed := range []bool{false, true} {
		got := build(reversed).Snapshot().Text()
		if got != want {
			t.Fatalf("reversed=%v text snapshot:\n%s\nwant:\n%s", reversed, got, want)
		}
	}
	// JSON is equally order-independent.
	a, err := build(false).Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(true).Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("JSON snapshots differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), `"name": "h/scan"`) {
		t.Fatalf("JSON missing histogram entry:\n%s", a)
	}
}

func TestSnapshotLookupHelpers(t *testing.T) {
	r := New()
	r.Counter("x").Add(4)
	r.Histogram("y", []int64{1}).Observe(0)
	s := r.Snapshot()
	if s.Counter("x") != 4 || s.Counter("absent") != 0 {
		t.Fatal("Counter lookup wrong")
	}
	if s.HistogramCount("y") != 1 || s.HistogramCount("absent") != 0 {
		t.Fatal("HistogramCount lookup wrong")
	}
}

// TestNilRegistryAndInstruments pins the disabled state: a nil registry
// hands out nil instruments and every operation is a no-op.
func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	snap := r.Snapshot()
	if snap.Text() != "" {
		t.Fatalf("nil registry snapshot not empty: %q", snap.Text())
	}
}

// TestDisabledInstrumentsZeroAllocs is the hard contract the hot paths rely
// on: with observability off (nil instruments, nil registry) the
// instrumentation layer performs zero allocations.
func TestDisabledInstrumentsZeroAllocs(t *testing.T) {
	var (
		r *Registry
		c *Counter
		g *Gauge
		h *Histogram
	)
	bounds := []int64{1, 2, 4}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(5)
		h.Observe(9)
		_ = c.Value()
		_ = h.Count()
	}); allocs != 0 {
		t.Fatalf("disabled instruments allocate %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Counter("a")
		_ = r.Gauge("b")
		_ = r.Histogram("c", bounds)
	}); allocs != 0 {
		t.Fatalf("nil registry lookups allocate %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAllocs: even when enabled, Inc/Observe on resolved
// instruments must not allocate — instrument resolution is the only
// allocating step.
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	h := r.Histogram("hist", []int64{4, 16, 64})
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(20)
	}); allocs != 0 {
		t.Fatalf("enabled hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestConcurrentCounters drives instruments from many goroutines and checks
// exact totals — the guarantee the parallel search and the experiment worker
// pool need for order-independent deterministic snapshots.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("conc")
	h := r.Histogram("conch", []int64{50})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", got, workers*perWorker)
	}
}
