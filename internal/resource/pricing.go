package resource

import (
	"math"

	"ecosched/internal/sim"
)

// PricingModel maps a node's performance rate to a per-time-unit price.
// The paper's generator uses a performance-exponential base price with a
// ±25% random spread: price ∈ [0.75p, 1.25p] with p = 1.7^performance.
type PricingModel interface {
	// BasePrice returns the deterministic price for a node of the given
	// performance before any random spread.
	BasePrice(performance float64) sim.Money
	// Sample draws a concrete price for a node of the given performance.
	Sample(rng *sim.RNG, performance float64) sim.Money
}

// ExponentialPricing is the paper's Section 5 pricing model:
// p = Base^performance, sampled uniformly in [LowFactor*p, HighFactor*p].
type ExponentialPricing struct {
	// Base is the exponent base; the paper uses 1.7.
	Base float64
	// LowFactor and HighFactor bound the uniform spread around the base
	// price; the paper uses 0.75 and 1.25.
	LowFactor  float64
	HighFactor float64
}

// PaperPricing returns the exact Section 5 pricing model.
func PaperPricing() ExponentialPricing {
	return ExponentialPricing{Base: 1.7, LowFactor: 0.75, HighFactor: 1.25}
}

// BasePrice implements PricingModel.
func (e ExponentialPricing) BasePrice(performance float64) sim.Money {
	return sim.Money(math.Pow(e.Base, performance))
}

// Sample implements PricingModel.
func (e ExponentialPricing) Sample(rng *sim.RNG, performance float64) sim.Money {
	p := e.BasePrice(performance)
	return rng.MoneyBetween(p*sim.Money(e.LowFactor), p*sim.Money(e.HighFactor))
}

// FlatPricing charges the same price regardless of performance. Useful for
// the homogeneous backfilling baseline and for tests.
type FlatPricing struct {
	Price sim.Money
}

// BasePrice implements PricingModel.
func (f FlatPricing) BasePrice(float64) sim.Money { return f.Price }

// Sample implements PricingModel.
func (f FlatPricing) Sample(*sim.RNG, float64) sim.Money { return f.Price }

// LinearPricing charges Slope*performance + Intercept; a simple alternative
// supply curve used in pricing ablations.
type LinearPricing struct {
	Slope     sim.Money
	Intercept sim.Money
}

// BasePrice implements PricingModel.
func (l LinearPricing) BasePrice(performance float64) sim.Money {
	return l.Slope*sim.Money(performance) + l.Intercept
}

// Sample implements PricingModel.
func (l LinearPricing) Sample(_ *sim.RNG, performance float64) sim.Money {
	return l.BasePrice(performance)
}
