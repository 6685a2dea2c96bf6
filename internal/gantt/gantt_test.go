package gantt

import (
	"strings"
	"testing"

	"ecosched/internal/sim"
)

func TestChartRendersRowsInOrder(t *testing.T) {
	c := NewChart(600)
	c.Add(Segment{Node: "cpu2", Span: sim.Interval{Start: 0, End: 300}, Kind: '#'})
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 300, End: 600}, Kind: '.'})
	out := c.Render()
	i2, i1 := strings.Index(out, "cpu2"), strings.Index(out, "cpu1")
	if i2 < 0 || i1 < 0 || i2 > i1 {
		t.Errorf("row order wrong:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Errorf("fills missing:\n%s", out)
	}
	// The ruler should show the horizon.
	if !strings.Contains(out, "600") {
		t.Errorf("time ruler missing horizon:\n%s", out)
	}
}

func TestChartLabelStamped(t *testing.T) {
	c := NewChart(100)
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 0, End: 100}, Label: "p1", Kind: '#'})
	if !strings.Contains(c.Render(), "p1") {
		t.Error("label not stamped into a wide segment")
	}
}

func TestChartTinySegmentVisible(t *testing.T) {
	c := NewChart(10000)
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 0, End: 1}, Kind: '#'})
	if !strings.Contains(c.Render(), "#") {
		t.Error("sub-column segment should still paint one cell")
	}
}

func TestChartLaterSegmentsOverlay(t *testing.T) {
	c := NewChart(100)
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 0, End: 100}, Kind: '.'})
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 0, End: 100}, Kind: 'W'})
	out := c.Render()
	if strings.Contains(out, ".") {
		t.Errorf("overlay should fully cover the earlier fill:\n%s", out)
	}
}

func TestChartUnknownNodeSegmentIgnored(t *testing.T) {
	c := NewChart(100)
	c.AddRow("cpu1")
	// A segment whose node was never registered via Add is registered
	// implicitly; but painting to a row map missing entry must not panic.
	c.Add(Segment{Node: "cpu9", Span: sim.Interval{Start: 0, End: 10}})
	if c.Render() == "" {
		t.Error("render failed")
	}
}

func TestChartDefaultFill(t *testing.T) {
	c := NewChart(100)
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 0, End: 50}})
	if !strings.Contains(c.Render(), "#") {
		t.Error("zero Kind should default to '#'")
	}
}
