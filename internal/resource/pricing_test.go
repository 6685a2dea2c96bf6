package resource

import (
	"math"
	"testing"

	"ecosched/internal/sim"
)

func TestPaperPricingBasePrice(t *testing.T) {
	p := PaperPricing()
	// p = 1.7^performance (Section 5).
	cases := []struct {
		perf float64
		want float64
	}{
		{1, 1.7},
		{2, 2.89},
		{3, 4.913},
	}
	for _, c := range cases {
		got := float64(p.BasePrice(c.perf))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("BasePrice(%v) = %v, want %v", c.perf, got, c.want)
		}
	}
}

func TestPaperPricingSampleSpread(t *testing.T) {
	p := PaperPricing()
	rng := sim.NewRNG(1)
	base := p.BasePrice(2)
	lo, hi := base*0.75, base*1.25
	var min, max sim.Money = math.MaxFloat64, 0
	for i := 0; i < 20000; i++ {
		s := p.Sample(rng, 2)
		if s < lo || s >= hi {
			t.Fatalf("Sample %v outside [%v, %v)", s, lo, hi)
		}
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	// The spread should nearly fill the configured band.
	if float64(min) > float64(lo)*1.02 || float64(max) < float64(hi)*0.98 {
		t.Errorf("Sample band [%v, %v] does not fill [%v, %v)", min, max, lo, hi)
	}
}

func TestFlatPricing(t *testing.T) {
	f := FlatPricing{Price: 5}
	if f.BasePrice(1) != 5 || f.BasePrice(3) != 5 {
		t.Error("FlatPricing must ignore performance")
	}
	if f.Sample(sim.NewRNG(1), 2) != 5 {
		t.Error("FlatPricing sample must be constant")
	}
}

func TestLinearPricing(t *testing.T) {
	l := LinearPricing{Slope: 2, Intercept: 1}
	if got := l.BasePrice(3); got != 7 {
		t.Errorf("LinearPricing.BasePrice(3) = %v, want 7", got)
	}
	if got := l.Sample(nil, 3); got != 7 {
		t.Errorf("LinearPricing.Sample = %v, want 7", got)
	}
}
