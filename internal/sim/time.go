// Package sim provides the primitive value types shared by every layer of the
// scheduler: simulated time, money, half-open intervals, and a deterministic
// random number generator with the uniform distributions used by the paper's
// workload generators.
//
// All of the packages in this repository express schedules in abstract ticks
// (sim.Time) rather than wall-clock time, mirroring the paper's dimensionless
// simulation setup (slot lengths in [50, 300], job lengths in [50, 150], and so
// on). Money is a float64-based type because the paper reports fractional
// average costs (e.g. 313.56) produced by fractional node prices.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulated time axis, measured in abstract ticks.
// The zero value is the origin of the scheduling horizon.
type Time int64

// Duration is a span of simulated time in ticks. Durations are non-negative
// in every valid schedule; negative values signal construction errors.
type Duration int64

// Infinity is a sentinel Time far beyond any schedule horizon used in
// practice. It is safe to add small durations to Infinity without overflow.
const Infinity Time = math.MaxInt64 / 4

// Add returns the time d ticks after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Min returns the earlier of t and u.
func (t Time) Min(u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// String renders the time as a plain tick count.
func (t Time) String() string {
	if t >= Infinity {
		return "inf"
	}
	return fmt.Sprintf("%d", int64(t))
}

// String renders the duration as a plain tick count.
func (d Duration) String() string { return fmt.Sprintf("%d", int64(d)) }

// Interval is a half-open time interval [Start, End). A zero-length interval
// (Start == End) is empty. Intervals with End < Start are invalid.
type Interval struct {
	Start Time
	End   Time
}

// Length returns End - Start.
func (iv Interval) Length() Duration { return iv.End.Sub(iv.Start) }

// Empty reports whether the interval covers no ticks.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Valid reports whether Start <= End.
func (iv Interval) Valid() bool { return iv.Start <= iv.End }

// ContainsInterval reports whether other lies fully inside iv.
// Empty intervals are contained in anything that contains their start point,
// and an empty interval at iv.End is considered contained as well.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.Empty() {
		return other.Start >= iv.Start && other.Start <= iv.End
	}
	return other.Start >= iv.Start && other.End <= iv.End
}

// Overlaps reports whether iv and other share at least one tick.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Intersect returns the overlap of iv and other; the result is empty when
// they do not overlap.
func (iv Interval) Intersect(other Interval) Interval {
	out := Interval{Start: iv.Start.Max(other.Start), End: iv.End.Min(other.End)}
	if out.End < out.Start {
		return Interval{Start: out.Start, End: out.Start}
	}
	return out
}

// Subtract removes other from iv and returns the surviving pieces in order.
// The result has zero, one, or two non-empty intervals.
func (iv Interval) Subtract(other Interval) []Interval {
	if !iv.Overlaps(other) {
		if iv.Empty() {
			return nil
		}
		return []Interval{iv}
	}
	var out []Interval
	if other.Start > iv.Start {
		out = append(out, Interval{Start: iv.Start, End: other.Start})
	}
	if other.End < iv.End {
		out = append(out, Interval{Start: other.End, End: iv.End})
	}
	return out
}

// String renders the interval as "[start, end)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Start, iv.End)
}
