package strategy

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// mkWindow builds a minimal valid single-placement window on a fresh node.
func mkWindow(jobName, nodeName string, start, end sim.Time) *slot.Window {
	n := &resource.Node{Name: nodeName, Performance: 1, Price: 1}
	return &slot.Window{JobName: jobName, Placements: []slot.Placement{
		{Source: slot.New(n, start, end), Used: sim.Interval{Start: start, End: end}},
	}}
}

// TestValidateTable drives Strategy.Validate through every rejection branch
// and the accepting case.
func TestValidateTable(t *testing.T) {
	j := &job.Job{Name: "j"}
	cases := []struct {
		name    string
		build   func() *Strategy
		wantErr string
	}{
		{
			name: "no-versions",
			build: func() *Strategy {
				return &Strategy{Jobs: []*JobStrategy{{Job: j}}}
			},
			wantErr: "no versions",
		},
		{
			name: "first-not-primary",
			build: func() *Strategy {
				return &Strategy{Jobs: []*JobStrategy{{Job: j, Versions: []Version{
					{Window: mkWindow("j", "a", 0, 100)},
				}}}}
			},
			wantErr: "not primary",
		},
		{
			name: "invalid-window",
			build: func() *Strategy {
				w := mkWindow("j", "a", 0, 100)
				w.Placements[0].Used = sim.Interval{Start: 50, End: 40}
				return &Strategy{Jobs: []*JobStrategy{{Job: j, Versions: []Version{
					{Window: w, Primary: true},
				}}}}
			},
			wantErr: "job j",
		},
		{
			name: "overlapping-versions",
			build: func() *Strategy {
				n := &resource.Node{Name: "x", Performance: 1, Price: 1}
				src := slot.New(n, 0, 200)
				w1 := &slot.Window{JobName: "j", Placements: []slot.Placement{
					{Source: src, Used: sim.Interval{Start: 0, End: 90}}}}
				w2 := &slot.Window{JobName: "j", Placements: []slot.Placement{
					{Source: src, Used: sim.Interval{Start: 80, End: 160}}}}
				return &Strategy{Jobs: []*JobStrategy{{Job: j, Versions: []Version{
					{Window: w1, Primary: true}, {Window: w2},
				}}}}
			},
			wantErr: "overlap",
		},
		{
			name: "valid",
			build: func() *Strategy {
				return &Strategy{Jobs: []*JobStrategy{{Job: j, Versions: []Version{
					{Window: mkWindow("j", "a", 0, 100), Primary: true},
					{Window: mkWindow("j", "b", 0, 100)},
				}}}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid strategy rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRedundancyTable covers the version-count accounting including the
// empty degenerate.
func TestRedundancyTable(t *testing.T) {
	cases := []struct {
		name     string
		versions int
		want     int
	}{
		{"empty", 0, 0},
		{"primary-only", 1, 0},
		{"one-spare", 2, 1},
		{"three-spares", 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			js := &JobStrategy{Job: &job.Job{Name: "j"}}
			for i := 0; i < tc.versions; i++ {
				js.Versions = append(js.Versions, Version{Primary: i == 0})
			}
			if got := js.Redundancy(); got != tc.want {
				t.Errorf("Redundancy() with %d versions = %d, want %d", tc.versions, got, tc.want)
			}
		})
	}
}

// TestCompletionRateTable covers the report ratio including the empty
// degenerate.
func TestCompletionRateTable(t *testing.T) {
	cases := []struct {
		name      string
		outcomes  int
		completed int
		want      float64
	}{
		{"empty", 0, 0, 0},
		{"none-complete", 4, 0, 0},
		{"half", 4, 2, 0.5},
		{"all", 3, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Report{Completed: tc.completed}
			for i := 0; i < tc.outcomes; i++ {
				rep.Outcomes = append(rep.Outcomes, JobOutcome{})
			}
			if got := rep.CompletionRate(); got != tc.want {
				t.Errorf("CompletionRate() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestBuildRejectsUncoveredJob exercises the branch where the plan chooses a
// job the search result has no alternatives for.
func TestBuildRejectsUncoveredJob(t *testing.T) {
	j := &job.Job{Name: "ghost"}
	plan := &dp.Plan{Choices: []dp.Choice{{Job: j, Window: mkWindow("ghost", "a", 0, 100)}}}
	search := &alloc.SearchResult{Alternatives: map[string][]*slot.Window{}}
	if _, err := Build(plan, search); err == nil ||
		!strings.Contains(err.Error(), "no alternatives") {
		t.Fatalf("Build with uncovered job: err = %v, want 'no alternatives'", err)
	}
}

// TestRobustnessStudyDefaultGenerators covers a tiny run on the paper's
// generators, the only input the study draws from.
func TestRobustnessStudyDefaultGenerators(t *testing.T) {
	alp, amp, err := RobustnessStudy(RobustnessConfig{Seed: 7, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if alp == nil || amp == nil {
		t.Fatal("nil points")
	}
	if alp.Algorithm != "ALP" || amp.Algorithm != "AMP" {
		t.Errorf("algorithm labels: %q, %q", alp.Algorithm, amp.Algorithm)
	}
}
