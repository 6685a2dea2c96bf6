package resource

import (
	"fmt"
	"math"
	"testing"

	"ecosched/internal/sim"
)

// Validate reports an error for degenerate pricing parameters.
func (e ExponentialPricing) Validate() error {
	if e.Base <= 0 {
		return fmt.Errorf("resource: pricing base must be positive, got %v", e.Base)
	}
	if e.LowFactor <= 0 || e.HighFactor < e.LowFactor {
		return fmt.Errorf("resource: pricing spread [%v, %v] invalid", e.LowFactor, e.HighFactor)
	}
	return nil
}

func TestPaperPricingBasePrice(t *testing.T) {
	p := PaperPricing()
	if err := p.Validate(); err != nil {
		t.Fatalf("paper pricing invalid: %v", err)
	}
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

func TestExponentialPricingValidate(t *testing.T) {
	bad := []ExponentialPricing{
		{Base: 0, LowFactor: 0.75, HighFactor: 1.25},
		{Base: 1.7, LowFactor: 0, HighFactor: 1.25},
		{Base: 1.7, LowFactor: 1.25, HighFactor: 0.75},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("case %d: invalid pricing accepted", i)
		}
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
