package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100)
	if got := tm.Add(50); got != 150 {
		t.Errorf("Add: got %v, want 150", got)
	}
	if got := tm.Add(-30); got != 70 {
		t.Errorf("Add negative: got %v, want 70", got)
	}
	if got := Time(150).Sub(tm); got != 50 {
		t.Errorf("Sub: got %v, want 50", got)
	}
}

func TestTimeMinMax(t *testing.T) {
	cases := []struct {
		a, b, min, max Time
	}{
		{1, 2, 1, 2},
		{2, 1, 1, 2},
		{5, 5, 5, 5},
		{-3, 0, -3, 0},
	}
	for _, c := range cases {
		if got := c.a.Min(c.b); got != c.min {
			t.Errorf("Min(%v, %v) = %v, want %v", c.a, c.b, got, c.min)
		}
		if got := c.a.Max(c.b); got != c.max {
			t.Errorf("Max(%v, %v) = %v, want %v", c.a, c.b, got, c.max)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(42).String(); got != "42" {
		t.Errorf("String: got %q, want \"42\"", got)
	}
	if got := Infinity.String(); got != "inf" {
		t.Errorf("Infinity.String: got %q, want \"inf\"", got)
	}
	if got := (Infinity + 5).String(); got != "inf" {
		t.Errorf("beyond Infinity: got %q, want \"inf\"", got)
	}
}

func TestDurationMinMax(t *testing.T) {
	if got := Duration(9).String(); got != "9" {
		t.Errorf("Duration.String: got %q", got)
	}
}

func TestIntervalPredicates(t *testing.T) {
	iv := Interval{Start: 10, End: 20}
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	if iv.Length() != 10 {
		t.Errorf("Length: got %v, want 10", iv.Length())
	}
	if !(Interval{Start: 5, End: 5}).Empty() {
		t.Error("zero-length interval should be empty")
	}
	if !iv.Valid() {
		t.Error("interval [10,20) should be valid")
	}
	if (Interval{Start: 20, End: 10}).Valid() {
		t.Error("interval [20,10) should be invalid")
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	outer := Interval{Start: 0, End: 100}
	cases := []struct {
		inner Interval
		want  bool
	}{
		{Interval{Start: 0, End: 100}, true},
		{Interval{Start: 10, End: 20}, true},
		{Interval{Start: 0, End: 0}, true},     // empty at start
		{Interval{Start: 100, End: 100}, true}, // empty at end
		{Interval{Start: 50, End: 101}, false},
		{Interval{Start: -1, End: 10}, false},
		{Interval{Start: 101, End: 101}, false}, // empty beyond end
	}
	for _, c := range cases {
		if got := outer.ContainsInterval(c.inner); got != c.want {
			t.Errorf("ContainsInterval(%v) = %v, want %v", c.inner, got, c.want)
		}
	}
}

func TestIntervalOverlapsAndIntersect(t *testing.T) {
	a := Interval{Start: 10, End: 20}
	cases := []struct {
		b        Interval
		overlaps bool
		inter    Interval
	}{
		{Interval{Start: 15, End: 25}, true, Interval{Start: 15, End: 20}},
		{Interval{Start: 20, End: 30}, false, Interval{Start: 20, End: 20}},
		{Interval{Start: 0, End: 10}, false, Interval{Start: 10, End: 10}},
		{Interval{Start: 12, End: 14}, true, Interval{Start: 12, End: 14}},
		{Interval{Start: 0, End: 100}, true, Interval{Start: 10, End: 20}},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.overlaps {
			t.Errorf("Overlaps(%v) = %v, want %v", c.b, got, c.overlaps)
		}
		got := a.Intersect(c.b)
		if got.Length() != c.inter.Length() || (!got.Empty() && got != c.inter) {
			t.Errorf("Intersect(%v) = %v, want %v", c.b, got, c.inter)
		}
	}
}

func TestIntervalSubtract(t *testing.T) {
	k := Interval{Start: 0, End: 100}
	cases := []struct {
		cut  Interval
		want []Interval
	}{
		{Interval{Start: 30, End: 60}, []Interval{{Start: 0, End: 30}, {Start: 60, End: 100}}},
		{Interval{Start: 0, End: 50}, []Interval{{Start: 50, End: 100}}},
		{Interval{Start: 50, End: 100}, []Interval{{Start: 0, End: 50}}},
		{Interval{Start: 0, End: 100}, nil},
		{Interval{Start: 200, End: 300}, []Interval{{Start: 0, End: 100}}},
	}
	for _, c := range cases {
		got := k.Subtract(c.cut)
		if len(got) != len(c.want) {
			t.Fatalf("Subtract(%v): got %v, want %v", c.cut, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Subtract(%v)[%d] = %v, want %v", c.cut, i, got[i], c.want[i])
			}
		}
	}
}

// TestIntervalSubtractConservation property: the pieces of a∖b plus a∩b
// cover exactly a's length.
func TestIntervalSubtractConservation(t *testing.T) {
	f := func(s1, l1, s2, l2 uint16) bool {
		a := Interval{Start: Time(s1), End: Time(s1).Add(Duration(l1))}
		b := Interval{Start: Time(s2), End: Time(s2).Add(Duration(l2))}
		var rest Duration
		for _, p := range a.Subtract(b) {
			if p.Empty() {
				return false // Subtract must not emit empty pieces
			}
			rest += p.Length()
		}
		return rest+a.Intersect(b).Length() == a.Length()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestIntervalIntersectCommutes property: intersection length is symmetric
// and bounded by both operands.
func TestIntervalIntersectCommutes(t *testing.T) {
	f := func(s1, l1, s2, l2 uint16) bool {
		a := Interval{Start: Time(s1), End: Time(s1).Add(Duration(l1))}
		b := Interval{Start: Time(s2), End: Time(s2).Add(Duration(l2))}
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab.Length() != ba.Length() {
			return false
		}
		return ab.Length() <= a.Length() && ab.Length() <= b.Length()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntervalString(t *testing.T) {
	if got := (Interval{Start: 1, End: 2}).String(); got != "[1, 2)" {
		t.Errorf("String: got %q", got)
	}
}

func TestMoneyComparisons(t *testing.T) {
	if !Money(1.0).LessEq(1.0) {
		t.Error("LessEq: equal amounts should compare true")
	}
	if !Money(1.0).LessEq(1.0 + MoneyEpsilon/2) {
		t.Error("LessEq: within epsilon should compare true")
	}
	if Money(2.0).LessEq(1.0) {
		t.Error("LessEq: 2 <= 1 should be false")
	}
	if !Money(1.0).ApproxEq(1.0) || Money(1.0).ApproxEq(1.1) {
		t.Error("ApproxEq misbehaves")
	}
	if Money(-1).ApproxEq(1) {
		t.Error("ApproxEq: -1 vs 1")
	}
}

func TestMoneyStringAndFinite(t *testing.T) {
	if got := Money(3.14159).String(); got != "3.14" {
		t.Errorf("String: got %q", got)
	}
	if !Money(1).IsFinite() {
		t.Error("1 should be finite")
	}
	if Money(math.NaN()).IsFinite() || Money(math.Inf(1)).IsFinite() {
		t.Error("NaN/Inf should not be finite")
	}
}
