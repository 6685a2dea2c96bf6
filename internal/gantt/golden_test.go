package gantt

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ecosched/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenChart builds the fixed Figs. 2–3-style fixture the golden test pins:
// vacancies underneath local load, two placed windows overlaying them, a
// sub-column segment, and an idle row.
func goldenChart() *Chart {
	c := NewChart(600)
	c.Width = 60
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 0, End: 600}, Kind: '.'})
	c.Add(Segment{Node: "cpu2", Span: sim.Interval{Start: 0, End: 600}, Kind: '.'})
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 100, End: 250}, Kind: '#', Label: "local"})
	c.Add(Segment{Node: "cpu2", Span: sim.Interval{Start: 540, End: 541}, Kind: '#'})
	c.Add(Segment{Node: "cpu1", Span: sim.Interval{Start: 300, End: 450}, Kind: 'A', Label: "j1"})
	c.Add(Segment{Node: "cpu2", Span: sim.Interval{Start: 300, End: 450}, Kind: 'A', Label: "j1"})
	c.AddRow("cpu3")
	return c
}

// TestChartGoldenRender compares the rendered chart byte for byte with the
// checked-in golden file. Regenerate with:
//
//	go test ./internal/gantt -run TestChartGoldenRender -update
func TestChartGoldenRender(t *testing.T) {
	got := goldenChart().Render()
	path := filepath.Join("testdata", "chart.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("render drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
