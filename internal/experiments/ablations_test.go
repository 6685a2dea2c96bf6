package experiments

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
)

func TestRhoSweepShrinksCost(t *testing.T) {
	cfg := PaperStudyConfig(42, 150)
	points, err := RhoSweep(cfg, []float64{0.7, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	low, full := points[0], points[1]
	if low.Rho != 0.7 || full.Rho != 1.0 {
		t.Fatal("rho order wrong")
	}
	// Section 6: a reduced budget factor lowers AMP's execution cost.
	if !(low.AMPJobCost < full.AMPJobCost) {
		t.Errorf("rho=0.7 AMP cost %v not below rho=1.0 cost %v", low.AMPJobCost, full.AMPJobCost)
	}
	// ALP ignores ρ entirely — with the identical scenario stream its
	// aggregates shift only through the kept-experiment filter; both runs
	// must report a sane reference.
	if low.ALPJobCost <= 0 || full.ALPJobCost <= 0 {
		t.Error("ALP reference missing")
	}
	if _, err := RhoSweep(cfg, []float64{0}); err == nil {
		t.Error("rho=0 accepted")
	}
	out := RenderRhoSweep(points)
	if !strings.Contains(out, "0.70") || !strings.Contains(out, "AMP cost") {
		t.Errorf("RenderRhoSweep incomplete:\n%s", out)
	}
}

func TestPolicyAblation(t *testing.T) {
	cfg := PaperStudyConfig(42, 120)
	points, err := PolicyAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	cheapest, first := points[0], points[1]
	if cheapest.Policy != alloc.CheapestN || first.Policy != alloc.FirstN {
		t.Fatal("policy order wrong")
	}
	if cheapest.Kept == 0 || first.Kept == 0 {
		t.Fatal("ablation kept no experiments")
	}
	// The cheapest-N policy buys windows at or below the first-N price
	// on average (it optimizes exactly that quantity per window).
	if cheapest.JobCost > first.JobCost*1.1 {
		t.Errorf("cheapest-N cost %v well above first-N %v", cheapest.JobCost, first.JobCost)
	}
}

func TestPassesAblation(t *testing.T) {
	cfg := PaperStudyConfig(42, 120)
	points, err := PassesAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstOnly, multi := points[0], points[1]
	if firstOnly.Label != "first-only" || multi.Label != "multi-pass" {
		t.Fatal("label order wrong")
	}
	// The multi-pass search gives the optimizer real choice; with only
	// one alternative per job the "optimization" is the identity. The
	// multi-pass plans must be at least as fast on average.
	if multi.AMPTime > firstOnly.AMPTime*1.02 {
		t.Errorf("multi-pass AMP time %v worse than first-only %v", multi.AMPTime, firstOnly.AMPTime)
	}
}

func TestClusteredAblation(t *testing.T) {
	cfg := PaperStudyConfig(42, 150)
	points, err := ClusteredAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	stat, clus := points[0], points[1]
	if stat.Kept == 0 || clus.Kept == 0 {
		t.Fatal("an ablation arm kept nothing")
	}
	// The AMP advantage must persist under both slot structures.
	if !(stat.AMPTime < stat.ALPTime) || !(clus.AMPTime < clus.ALPTime) {
		t.Errorf("AMP advantage lost: stat %v/%v, clustered %v/%v",
			stat.AMPTime, stat.ALPTime, clus.AMPTime, clus.ALPTime)
	}
	out := RenderClustered(points)
	if !strings.Contains(out, "clustered domains") {
		t.Errorf("render incomplete:\n%s", out)
	}
}
