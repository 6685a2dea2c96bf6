package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Std() != 0 || o.Min() != 0 || o.Max() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(v)
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Errorf("Mean: got %v", o.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(o.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var: got %v", o.Var())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("Min/Max: %v/%v", o.Min(), o.Max())
	}
	if o.CI95() <= 0 {
		t.Error("CI95 should be positive for n >= 2")
	}
	if !strings.Contains(o.String(), "n=8") {
		t.Errorf("String: %q", o.String())
	}
}

func TestOnlineSingleSample(t *testing.T) {
	var o Online
	o.Add(3)
	if o.Var() != 0 || o.CI95() != 0 {
		t.Error("variance of a single sample must be 0")
	}
	if o.Min() != 3 || o.Max() != 3 {
		t.Error("Min/Max of single sample wrong")
	}
}

// TestOnlineMatchesNaive property: Welford agrees with the two-pass formula.
func TestOnlineMatchesNaive(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var o Online
		var sum float64
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 7.0
			o.Add(vals[i])
			sum += vals[i]
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		naiveVar := ss / float64(len(vals)-1)
		return math.Abs(o.Mean()-mean) < 1e-9 && math.Abs(o.Var()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "x"}
	if s.Len() != 0 {
		t.Error("empty series should be zero")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Len() != 4 || s.Values[3] != 4 {
		t.Errorf("series aggregates wrong: len=%d values=%v", s.Len(), s.Values)
	}
}

func TestSeriesFractionBelow(t *testing.T) {
	a := Series{Values: []float64{1, 5, 2, 8}}
	b := Series{Values: []float64{2, 4, 3, 9}}
	if got := a.FractionBelow(&b); got != 0.75 {
		t.Errorf("FractionBelow: got %v, want 0.75", got)
	}
	empty := Series{}
	if empty.FractionBelow(&a) != 0 {
		t.Error("empty series fraction should be 0")
	}
	short := Series{Values: []float64{0}}
	if got := short.FractionBelow(&a); got != 1 {
		t.Errorf("truncated comparison: got %v", got)
	}
}

func TestQuantile(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	data := []float64{5, 1, 3, 2, 4}
	if Quantile(data, 0) != 1 || Quantile(data, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if got := Quantile(data, 0.5); got != 3 {
		t.Errorf("median: got %v", got)
	}
	// Input must not be reordered.
	if data[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 10)
	out := tb.String()
	if !strings.Contains(out, "3.14") {
		t.Errorf("floats should render with 2 decimals: %q", out)
	}
	if !strings.Contains(out, "-----") {
		t.Error("header separator missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
	// All lines should align to the same prefix width for column 1.
	if !strings.HasPrefix(lines[2], "alpha") || !strings.HasPrefix(lines[3], "b    ") {
		t.Errorf("column alignment broken:\n%s", out)
	}
}

func TestPercentDelta(t *testing.T) {
	if got := PercentDelta(50, 65); got != 30 {
		t.Errorf("PercentDelta: got %v", got)
	}
	if got := PercentDelta(50, 40); got != -20 {
		t.Errorf("PercentDelta negative: got %v", got)
	}
	if PercentDelta(0, 10) != 0 {
		t.Error("zero base should return 0")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3x² → slope 2.
	xs := []float64{1, 2, 4, 8, 16}
	var quad, lin []float64
	for _, x := range xs {
		quad = append(quad, 3*x*x)
		lin = append(lin, 5*x)
	}
	if got := LogLogSlope(xs, quad); math.Abs(got-2) > 1e-9 {
		t.Errorf("quadratic slope: %v", got)
	}
	if got := LogLogSlope(xs, lin); math.Abs(got-1) > 1e-9 {
		t.Errorf("linear slope: %v", got)
	}
	if LogLogSlope(nil, nil) != 0 {
		t.Error("empty input should be 0")
	}
	if LogLogSlope([]float64{1}, []float64{1}) != 0 {
		t.Error("single point should be 0")
	}
	if LogLogSlope([]float64{-1, 2}, []float64{1, 2}) != 0 {
		t.Error("one usable point should be 0")
	}
	if LogLogSlope([]float64{2, 2, 2}, []float64{1, 2, 3}) != 0 {
		t.Error("degenerate x should be 0")
	}
}
