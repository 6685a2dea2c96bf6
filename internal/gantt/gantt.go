// Package gantt renders ASCII resource-line charts in the style of the
// paper's Figs. 2–3: one row per node, time flowing left to right, with
// local tasks, vacant slots, and found windows drawn as labeled segments.
package gantt

import (
	"fmt"
	"strings"

	"ecosched/internal/sim"
)

// Segment is one labeled span on a node's row.
type Segment struct {
	Node  string
	Span  sim.Interval
	Label string
	// Kind selects the fill rune: '.' vacant, '#' busy/local, letters for
	// windows. Zero defaults to '#'.
	Kind rune
}

// Chart accumulates segments and renders them over a fixed horizon.
type Chart struct {
	Horizon  sim.Time
	Width    int // rendered columns for the time axis (default 80)
	segments []Segment
	order    []string
	seen     map[string]bool
}

// NewChart creates a chart over [0, horizon).
func NewChart(horizon sim.Time) *Chart {
	return &Chart{Horizon: horizon, Width: 80, seen: make(map[string]bool)}
}

// Add appends a segment. Rows appear in first-added order.
func (c *Chart) Add(s Segment) {
	if !c.seen[s.Node] {
		c.seen[s.Node] = true
		c.order = append(c.order, s.Node)
	}
	c.segments = append(c.segments, s)
}

// AddRow registers a node row without content so idle nodes still render.
func (c *Chart) AddRow(node string) {
	if !c.seen[node] {
		c.seen[node] = true
		c.order = append(c.order, node)
	}
}

// col maps a time to a column index.
func (c *Chart) col(t sim.Time) int {
	if c.Horizon <= 0 {
		return 0
	}
	col := int(int64(t) * int64(c.Width) / int64(c.Horizon))
	if col < 0 {
		col = 0
	}
	if col > c.Width {
		col = c.Width
	}
	return col
}

// Render draws the chart. Each row is "<node> |<cells>|"; a time ruler is
// appended underneath.
func (c *Chart) Render() string {
	nameWidth := 4
	for _, n := range c.order {
		if len(n) > nameWidth {
			nameWidth = len(n)
		}
	}
	rows := make(map[string][]rune, len(c.order))
	for _, n := range c.order {
		cells := make([]rune, c.Width)
		for i := range cells {
			cells[i] = ' '
		}
		rows[n] = cells
	}
	// Paint in insertion order so later segments (windows) overlay
	// earlier ones (vacancies).
	for _, s := range c.segments {
		cells, ok := rows[s.Node]
		if !ok {
			continue
		}
		fill := s.Kind
		if fill == 0 {
			fill = '#'
		}
		from, to := c.col(s.Span.Start), c.col(s.Span.End)
		if to == from && !s.Span.Empty() {
			to = from + 1 // keep sub-column segments visible
		}
		for i := from; i < to && i < c.Width; i++ {
			cells[i] = fill
		}
		// Stamp the label into the segment when it fits.
		if s.Label != "" && to-from > len(s.Label) {
			for i, r := range s.Label {
				cells[from+1+i] = r
			}
		}
	}
	var sb strings.Builder
	for _, n := range c.order {
		fmt.Fprintf(&sb, "%-*s |%s|\n", nameWidth, n, string(rows[n]))
	}
	// Time ruler with up to five tick marks.
	ruler := make([]rune, c.Width)
	for i := range ruler {
		ruler[i] = '-'
	}
	sb.WriteString(strings.Repeat(" ", nameWidth))
	sb.WriteString(" +")
	sb.WriteString(string(ruler))
	sb.WriteString("+\n")
	sb.WriteString(strings.Repeat(" ", nameWidth))
	sb.WriteString("  ")
	ticks := 5
	var tickLine strings.Builder
	prev := 0
	for i := 0; i <= ticks; i++ {
		t := sim.Time(int64(c.Horizon) * int64(i) / int64(ticks))
		label := fmt.Sprintf("%d", int64(t))
		pos := c.col(t)
		if pos-prev < 0 {
			continue
		}
		pad := pos - prev
		if pad > 0 {
			tickLine.WriteString(strings.Repeat(" ", pad))
		}
		tickLine.WriteString(label)
		prev = pos + len(label)
	}
	sb.WriteString(tickLine.String())
	sb.WriteByte('\n')
	return sb.String()
}
