package strategy

import (
	"strings"
	"testing"
)

// TestRobustnessStudyValidation pins the config validation: iteration
// bounds are rejected before any work happens.
func TestRobustnessStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  RobustnessConfig
	}{
		{"zero iterations", RobustnessConfig{Iterations: 0}},
		{"negative iterations", RobustnessConfig{Iterations: -5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := RobustnessStudy(c.cfg); err == nil {
				t.Fatalf("config %+v accepted", c.cfg)
			}
		})
	}
}

// TestRobustnessStudyRuns drives the study end to end on the paper's
// generators and checks the
// aggregates are sane: iterations are kept, completion rates live in [0, 1],
// and AMP's redundancy is at least ALP's — the whole point of the
// multi-variant search is its larger alternative sets.
func TestRobustnessStudyRuns(t *testing.T) {
	alp, amp, err := RobustnessStudy(RobustnessConfig{Seed: 42, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*RobustnessPoint{alp, amp} {
		if p.Kept <= 0 {
			t.Fatalf("%s kept no iterations out of 30", p.Algorithm)
		}
		if rate := p.CompletionRate.Mean(); rate < 0 || rate > 1 {
			t.Fatalf("%s completion rate %v outside [0, 1]", p.Algorithm, rate)
		}
		if rate := p.PrimaryRate.Mean(); rate < 0 || rate > 1 {
			t.Fatalf("%s primary survival %v outside [0, 1]", p.Algorithm, rate)
		}
		if p.RedundancyPerJob.Mean() < 0 {
			t.Fatalf("%s negative redundancy %v", p.Algorithm, p.RedundancyPerJob.Mean())
		}
	}
	if alp.Algorithm != "ALP" || amp.Algorithm != "AMP" {
		t.Fatalf("points mislabelled: %q, %q", alp.Algorithm, amp.Algorithm)
	}
	if amp.RedundancyPerJob.Mean() < alp.RedundancyPerJob.Mean() {
		t.Errorf("AMP redundancy %v below ALP's %v — the multi-variant search lost its advantage",
			amp.RedundancyPerJob.Mean(), alp.RedundancyPerJob.Mean())
	}
}

// TestRobustnessStudyDeterministic pins seed determinism: the same config
// renders the identical table, and a different seed a (very likely)
// different one.
func TestRobustnessStudyDeterministic(t *testing.T) {
	render := func(seed uint64) string {
		alp, amp, err := RobustnessStudy(RobustnessConfig{Seed: seed, Iterations: 15})
		if err != nil {
			t.Fatal(err)
		}
		return RenderRobustness(alp, amp)
	}
	first, second := render(7), render(7)
	if first != second {
		t.Fatalf("same seed rendered different tables\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if other := render(8); other == first {
		t.Error("seeds 7 and 8 rendered identical tables — the seed is not reaching the generators")
	}
}

// TestRenderRobustness checks the table carries every reported metric and
// the failure probability header.
func TestRenderRobustness(t *testing.T) {
	alp, amp, err := RobustnessStudy(RobustnessConfig{Seed: 3, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderRobustness(alp, amp)
	for _, frag := range []string{
		"node failure probability 0.25",
		"kept iterations",
		"completion rate",
		"primary survival",
		"contingencies per job",
		"mean fallback delay",
		"ALP", "AMP",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered table missing %q:\n%s", frag, out)
		}
	}
}
