package codec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"ecosched/internal/gridsim"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// oracleEncodeCheckpoint is the reference EncodeCheckpoint must match byte
// for byte: the checkpoint converted to checkpointJSON and run through
// json.Marshal, then framed behind the magic.
func oracleEncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	doc := checkpointJSON{
		Version:       CheckpointVersion,
		Seq:           cp.Seq,
		JournalOffset: cp.JournalOffset,
		Rounds:        cp.Rounds,
		Sched:         schedToWire(cp.Sched),
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
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return append([]byte(CheckpointMagic), Frame(payload)...), nil
}

// checkAgainstOracle requires EncodeCheckpoint to give the oracle's bytes, or
// both to fail. It reports whether the encoding succeeded.
func checkAgainstOracle(t *testing.T, cp *Checkpoint) ([]byte, bool) {
	t.Helper()
	got, err := EncodeCheckpoint(cp)
	want, werr := oracleEncodeCheckpoint(cp)
	if (err != nil) != (werr != nil) {
		t.Fatalf("encoder error %v, oracle error %v", err, werr)
	}
	if err != nil {
		return nil, false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from the oracle\n got %q\nwant %q", got, want)
	}
	return got, true
}

// TestEncodeCheckpointMatchesOracle covers the encoder's branches: present,
// nil and empty lists; strings needing every kind of escape; and floats on
// each side of json's format cut-offs, at ±0 and subnormal. Non-finite
// floats must fail on both sides.
func TestEncodeCheckpointMatchesOracle(t *testing.T) {
	names := []string{
		"", "plain-1", `<>&"\`, "a\x00b\x01\b\f\n\r\t\x1f\x7f", "zürich", "日本",
		"\u2028\u2029", "\xff\xfe", "ok\xc3", "\xed\xa0\x80", "mix<é>\x02",
	}
	// Each special byte or rune alone in an otherwise plain name.
	for _, c := range []string{"<", ">", "&", `"`, `\`, "\x00", "\b", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\x80", "\xff"} {
		names = append(names, "a"+c+"b")
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 33.25, 0.1, 123456789.125,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		1e-7, 1e22, -1e-7, 1.5e-300, 1e-10, math.MaxFloat64, -math.MaxFloat64,
	}
	cases := map[string]*Checkpoint{"sample": sampleCheckpoint()}
	for _, lists := range []string{"nil", "empty"} {
		cp := sampleCheckpoint()
		cp.Grid.Failed, cp.Grid.Tasks, cp.Grid.Income = nil, nil, nil
		if lists == "empty" {
			cp.Grid.Failed, cp.Grid.Tasks, cp.Grid.Income = []gridsim.NodeFailureState{}, []gridsim.TaskState{}, []gridsim.DomainIncomeState{}
		}
		cases[lists+" lists"] = cp
	}
	for i, s := range names {
		cp := sampleCheckpoint()
		cp.Grid.Failed[0].Node = s
		cp.Grid.Tasks[0].Name = s
		cp.Grid.Tasks[1].Node = s
		cp.Grid.Income[0].Domain = s
		cases[fmt.Sprintf("name %d %q", i, s)] = cp
	}
	for i, f := range floats {
		for _, sign := range []float64{1, -1} {
			cp := sampleCheckpoint()
			v := sim.Money(sign * f)
			cp.Grid.Tasks[0].Cost, cp.Grid.Tasks[1].Charged, cp.Grid.Income[1].Amount = v, v, v
			cases[fmt.Sprintf("float %d %v", i, v)] = cp
		}
	}
	cp := sampleCheckpoint()
	cp.Seq, cp.JournalOffset, cp.Rounds, cp.Grid.Now = math.MaxUint64, math.MinInt64, math.MaxInt, math.MinInt64
	cp.Grid.Tasks[0].Span = sim.Interval{Start: math.MinInt64, End: math.MaxInt64}
	cases["extreme integers"] = cp
	for name, cp := range cases {
		t.Run(name, func(t *testing.T) {
			if _, ok := checkAgainstOracle(t, cp); !ok {
				t.Fatal("valid checkpoint rejected")
			}
		})
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*Checkpoint){
			"cost":    func(cp *Checkpoint) { cp.Grid.Tasks[1].Cost = sim.Money(bad) },
			"charged": func(cp *Checkpoint) { cp.Grid.Tasks[0].Charged = sim.Money(bad) },
			"amount":  func(cp *Checkpoint) { cp.Grid.Income[0].Amount = sim.Money(bad) },
		} {
			cp := sampleCheckpoint()
			set(cp)
			if _, ok := checkAgainstOracle(t, cp); ok {
				t.Errorf("%s = %v encoded", field, bad)
			}
		}
	}
}

// TestAppendCheckpointFromLiveGrid: the grid section streamed from a live
// grid — failed nodes, charged VO bookings, a name that takes the escape
// path, income — gives EncodeCheckpoint's bytes for the grid's export and
// the oracle's, appended after what the buffer held. A NaN fee booked past
// the rules is refused with encoding/json's error.
func TestAppendCheckpointFromLiveGrid(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "n1", Performance: 1, Price: 1, Domain: "east"},
		{Name: "n2", Performance: 2, Price: 2, Domain: "west"},
		{Name: "n<3>", Performance: 1.5, Price: 3, Domain: "east"},
	})
	g, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RestoreState(&gridsim.GridState{
		Now:    150,
		Failed: []gridsim.NodeFailureState{{Node: "n1", At: 100}},
		Tasks: []gridsim.TaskState{
			{Name: "j1", Node: "n2", Span: sim.Interval{Start: 150, End: 190}, Cost: 120, Charged: 120},
			{Name: "j\"2\"\u2028", Node: "n<3>", Span: sim.Interval{Start: 160, End: 200}, Cost: 33.25, Charged: 1e-7},
			{Name: "local@0-30", Node: "n<3>", Span: sim.Interval{Start: 0, End: 30}, Local: true},
			{Name: "local@200-260", Node: "n2", Span: sim.Interval{Start: 200, End: 260}, Local: true},
		},
		Income: []gridsim.DomainIncomeState{{Domain: "east", Amount: 1e21}, {Domain: "we&st", Amount: 120}},
	}); err != nil {
		t.Fatal(err)
	}
	cp := sampleCheckpoint()
	cp.Grid = g.ExportState()
	want, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if oracle, err := oracleEncodeCheckpoint(cp); err != nil || !bytes.Equal(want, oracle) {
		t.Fatalf("EncodeCheckpoint differs from the oracle (%v)", err)
	}
	prefix := []byte("kept")
	live := *cp
	live.Grid = nil // AppendCheckpoint reads the grid from its source only
	got, err := AppendCheckpoint(prefix, &live, g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("live encoding differs from the export's\n got %q\nwant %q", got[len(prefix):], want)
	}

	g.ForceBook(gridsim.Task{Name: "nan", Node: 1, Span: sim.Interval{Start: 400, End: 420}, Cost: sim.Money(math.NaN())})
	var unsupported *json.UnsupportedValueError
	if _, err := AppendCheckpoint(got[:0], &live, g); !errors.As(err, &unsupported) {
		t.Fatalf("a NaN fee streamed from the live grid gave %v, want a json.UnsupportedValueError", err)
	}
	cp.Grid = g.ExportState()
	if _, err := EncodeCheckpoint(cp); !errors.As(err, &unsupported) {
		t.Fatalf("a NaN fee in the export gave %v, want a json.UnsupportedValueError", err)
	}
}

// FuzzCheckpointEncode builds a checkpoint from raw bytes and bits — strings
// need not be valid UTF-8, floats may be any bit pattern — and requires the
// encoder to match the oracle (or both to fail), and every encoding to
// decode and re-encode to the same bytes.
func FuzzCheckpointEncode(f *testing.F) {
	f.Add([]byte("j1"), []byte("n2"), []byte("east"), math.Float64bits(120), math.Float64bits(0), math.Float64bits(33.25), int64(0), int64(30), true, uint8(0xff))
	f.Add([]byte("< >"), []byte("\xff"), []byte(""), math.Float64bits(1e21), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(1e-7), int64(-5), int64(7), false, uint8(0x0a))
	f.Add([]byte("a"), []byte("b"), []byte("c"), math.Float64bits(math.NaN()), uint64(1), math.Float64bits(math.Inf(-1)), int64(1), int64(2), false, uint8(0x13))
	f.Fuzz(func(t *testing.T, name, node, domain []byte, cost, charged, amount uint64, start, end int64, local bool, shape uint8) {
		cp := sampleCheckpoint()
		g := &gridsim.GridState{Now: sim.Time(start)}
		// shape bits: failure count, task count (two bits), income count,
		// and whether absent lists are nil or empty.
		if shape&0x10 != 0 {
			g.Failed, g.Tasks, g.Income = []gridsim.NodeFailureState{}, []gridsim.TaskState{}, []gridsim.DomainIncomeState{}
		}
		for i := 0; i < int(shape&1); i++ {
			g.Failed = append(g.Failed, gridsim.NodeFailureState{Node: string(node), At: sim.Time(end)})
		}
		for i := 0; i < int(shape>>1&3); i++ {
			g.Tasks = append(g.Tasks, gridsim.TaskState{
				Name:    string(name),
				Node:    string(node),
				Span:    sim.Interval{Start: sim.Time(start), End: sim.Time(end)},
				Local:   local != (i%2 == 1),
				Cost:    sim.Money(math.Float64frombits(cost)),
				Charged: sim.Money(math.Float64frombits(charged)),
			})
		}
		for i := 0; i < int(shape>>3&1); i++ {
			g.Income = append(g.Income, gridsim.DomainIncomeState{Domain: string(domain), Amount: sim.Money(math.Float64frombits(amount))})
		}
		cp.Grid = g
		data, ok := checkAgainstOracle(t, cp)
		if !ok {
			return
		}
		// Decoding normalizes what JSON cannot carry (invalid UTF-8 becomes
		// U+FFFD, an omitted -0 comes back as 0); from there the round trip
		// is exact.
		back, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("own encoding failed to decode: %v", err)
		}
		again, ok := checkAgainstOracle(t, back)
		if !ok {
			t.Fatal("decoded checkpoint failed to encode")
		}
		back2, err := DecodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v", err)
		}
		if !reflect.DeepEqual(back2, back) {
			t.Fatalf("decode → encode → decode changed the checkpoint\n got %+v\nwant %+v", back2, back)
		}
	})
}

// bigCheckpoint is a checkpoint shaped like the 1000-node service's: n
// owner-local tasks spread over 1000 nodes, one in ten a charged VO booking.
func bigCheckpoint(n int) *Checkpoint {
	cp := sampleCheckpoint()
	cp.Grid.Tasks = make([]gridsim.TaskState, 0, n)
	for i := 0; i < n; i++ {
		k := sim.Time(i / 1000)
		t := gridsim.TaskState{
			Name:  fmt.Sprintf("p%d-%d", i%1000, k),
			Node:  fmt.Sprintf("cpu%d", i%1000),
			Span:  sim.Interval{Start: 1800 + 100*k, End: 1850 + 100*k},
			Local: true,
		}
		if i%10 == 0 {
			t.Local, t.Cost, t.Charged = false, sim.Money(i%97)+0.25, sim.Money(i%97)+0.25
		}
		cp.Grid.Tasks = append(cp.Grid.Tasks, t)
	}
	return cp
}

// TestEncodeCheckpointAllocsIndependentOfTasks: encoding into a buffer kept
// from the last encoding, as the durable service does, allocates as often
// for 100k tasks as for 1k.
func TestEncodeCheckpointAllocsIndependentOfTasks(t *testing.T) {
	// Refilling encoding/json's encoder pool counts allocations the task
	// count has no part in. A collection empties the pool, so GC is off; the
	// race detector's sync.Pool drops items at random, so each count is the
	// least of several single runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		cp := bigCheckpoint(n)
		buf, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for i := 0; i < 8; i++ {
			least = math.Min(least, testing.AllocsPerRun(1, func() {
				if buf, err = AppendCheckpoint(buf[:0], cp, cp.Grid); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Fatalf("AppendCheckpoint into a kept buffer allocates %v times at 1k tasks but %v at 100k", small, large)
	}
}

var sinkCheckpoint []byte

// BenchmarkEncodeCheckpoint encodes a 100k-task checkpoint, the size of the
// 1000-node service's.
func BenchmarkEncodeCheckpoint(b *testing.B) {
	cp := bigCheckpoint(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := EncodeCheckpoint(cp)
		if err != nil {
			b.Fatal(err)
		}
		sinkCheckpoint = data
	}
}
