package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecosched/internal/gridsim"
	"ecosched/internal/job"
)

func smokeOptions(t *testing.T) options {
	return options{seed: 1, reps: 1, smoke: true, untraced: true, traced: true, outDir: t.TempDir()}
}

// TestSmokeEmitsEveryMetric runs every workload in the smoke shape, traced,
// and requires every named metric to be present and finite and every gate to
// pass.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, sp := range workloads {
		opt := smokeOptions(t)
		res, err := runWorkload(sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: gates failed on an undamaged run: %v", sp.name, res.Violations)
		}
		if res.Attempted == 0 {
			t.Errorf("%s: nothing attempted", sp.name)
		}
		for _, d := range endToEndDefs {
			v, ok := res.EndToEnd[d.name]
			if d.churnOnly && !sp.churn {
				if ok {
					t.Errorf("%s: %s reported off the journaled workload", sp.name, d.name)
				}
				continue
			}
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %t)", sp.name, d.name, v, ok)
			}
		}
		for _, d := range perLayerDefs {
			v, ok := res.PerLayer[d.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %t)", sp.name, d.name, v, ok)
			}
		}
		if sp.churn {
			if res.PerLayer["metasched.requeues"].Value == 0 || res.PerLayer["metasched.cancelled"].Value == 0 {
				t.Errorf("%s: the fault mix cancelled no placed job", sp.name)
			}
		}
		if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}
	}
}

// doubleBook damages the grid after the session's last round: a VO task
// forced over a node's last booking, bypassing every rule Book enforces.
func doubleBook(last int) func(*session, int) {
	return func(s *session, round int) {
		if round != last {
			return
		}
		g := s.sched.Grid()
		for _, n := range g.Pool().Nodes() {
			if tasks := g.Tasks(n.ID); len(tasks) > 0 {
				g.ForceBook(gridsim.Task{Name: "corrupt", Node: n.ID, Span: tasks[len(tasks)-1].Span})
				return
			}
		}
	}
}

// extraJob changes the session's schedule: one more job, ahead of all
// others, submitted right after the warm-up round.
func extraJob(s *session, round int) {
	if round != 0 {
		return
	}
	j := &job.Job{Name: "intruder", Priority: -1, Request: job.ResourceRequest{Nodes: 2, Time: 60, MinPerformance: 1, MaxPrice: 100}}
	s.jobs[j.Name] = j
	s.submit(j)
}

// TestGatesFire seeds a corruption into one pass at a time and requires the
// gates guarding that pass to report it.
func TestGatesFire(t *testing.T) {
	const rounds = 3 // of the smoke shape
	cases := []struct {
		workload, pass string
		reps           int
		corrupt        func(*session, int)
		want           []string
	}{
		{"dense-alts", "rep2", 2, doubleBook(rounds), []string{"rep2: audit:", "double-booking", "rep2: deterministic outputs differ from rep1"}},
		{"wide-k1", "traced", 1, doubleBook(rounds), []string{"traced: audit:", "traced: state hash"}},
		{"wide-k4", "twin", 1, extraJob, []string{"twin: wide-k1 placed transcript"}},
		{"churn-durable", "rep1", 1, doubleBook(rounds), []string{"rep1: audit:", "rep1: recovered state hash"}},
		{"churn-durable", "journaled", 1, doubleBook(rounds), []string{"journaled: audit:", "journaled: state hash"}},
	}
	for _, c := range cases {
		sp, _ := workloadByName(c.workload)
		opt := smokeOptions(t)
		opt.reps = c.reps
		opt.corrupt = map[string]func(*session, int){c.pass: c.corrupt}
		res, err := runWorkload(sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("%s with %s corrupted passed its gates", c.workload, c.pass)
		}
		all := strings.Join(res.Violations, "\n")
		for _, w := range c.want {
			if !strings.Contains(all, w) {
				t.Errorf("%s with %s corrupted: no violation mentions %q in:\n%s", c.workload, c.pass, w, all)
			}
		}
	}
}

// TestReplayMismatchIsAViolation shows the reconciliation gate: a replay that
// does not reproduce the round's alternative count is reported.
func TestReplayMismatchIsAViolation(t *testing.T) {
	sp, _ := workloadByName("dense-alts")
	opt := smokeOptions(t)
	// A job the harness never generated enters the traced session only: the
	// rounds that resolve it report alternatives the replay cannot rebuild
	// from the harness's own job table.
	opt.corrupt = map[string]func(*session, int){"traced": func(s *session, round int) {
		if round == 0 {
			j := &job.Job{Name: "stranger", Priority: -1, Request: job.ResourceRequest{Nodes: 1, Time: 20, MinPerformance: 1, MaxPrice: 100}}
			s.submit(j)
			s.jobs[j.Name] = &job.Job{Name: j.Name, Priority: -1, Request: job.ResourceRequest{Nodes: 3, Time: 400, MinPerformance: 1.7, MaxPrice: 100}}
		}
	}}
	res, err := runWorkload(sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if all := strings.Join(res.Violations, "\n"); !strings.Contains(all, "traced: replay of iteration") {
		t.Errorf("no replay violation in:\n%s", all)
	}
}

// TestCommandLine drives the single-workload mode the benchmark driver uses
// and checks the shape of its last line.
func TestCommandLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "dense-alts", "--seed", "3", "--seconds", "0", "--trace", trace, "-smoke", "-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil {
			t.Errorf("trace %s: result %s", trace, lines[len(lines)-1])
		}
		want := contractNames(trace == "1")
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, name := range want {
			if m, ok := got.Metrics[name]; !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: metric %s missing from the result line", trace, name)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func contractNames(traced bool) []string {
	var names []string
	if traced {
		for _, d := range perLayerDefs {
			names = append(names, d.name)
		}
		return names
	}
	for _, d := range endToEndDefs {
		if d.contract {
			names = append(names, d.name)
		}
	}
	return names
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, when the checkout has it,
// naming exactly the workloads and metrics the harness emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/")
	}
	var file struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, the harness has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloads[i].name)
		}
	}
	direction := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		defs[d.name] = d
	}
	if want := contractNames(false); len(file.EndToEnd) != len(want) {
		t.Errorf("%d end-to-end metrics listed, the harness emits %d", len(file.EndToEnd), len(want))
	}
	for _, m := range file.EndToEnd {
		d, ok := defs[m.Name]
		if !ok || !d.contract || d.unit != m.Unit || direction(d) != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end metric %+v does not match the harness's %+v", m, d)
		}
	}
	if len(file.PerLayer) != len(perLayerDefs) {
		t.Errorf("%d per-layer metrics listed, the harness emits %d", len(file.PerLayer), len(perLayerDefs))
	}
	for _, m := range file.PerLayer {
		d, ok := defs[m.Name]
		if !ok || d.unit != m.Unit || direction(d) != m.Better {
			t.Errorf("per-layer metric %+v does not match the harness's %+v", m, d)
		}
	}
}

// TestCompareVerdicts pins -compare's rules on hand-made results.
func TestCompareVerdicts(t *testing.T) {
	result := func(p50 []float64, wait float64) *resultFile {
		return &resultFile{Workloads: []*workloadResult{{Name: "w", Seed: 1, Correct: true, EndToEnd: map[string]metricValue{
			"round_ms_p50":   {Value: median(p50), Unit: "ms", Runs: p50},
			"wait_ticks_p50": {Value: wait, Unit: "ticks"},
		}}}}
	}
	base := result([]float64{100, 101, 102}, 7)
	cases := []struct {
		name    string
		b       *resultFile
		pass    bool
		verdict string
	}{
		{"same", result([]float64{101, 102, 103}, 7), true, " ok"},
		{"regression", result([]float64{130, 131, 132}, 7), false, "REGRESSION"},
		{"exact mismatch", result([]float64{100, 101, 102}, 8), false, "MISMATCH"},
		{"noisy", result([]float64{60, 100, 150}, 7), true, "unresolved"},
		{"noisy but better", result([]float64{40, 50, 70}, 7), true, "improved"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compareResults(base, c.b, &out); got != c.pass || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: pass=%t, want %t with %q in:\n%s", c.name, got, c.pass, c.verdict, out.String())
		}
	}
}
