// Package job models the demand side of the economic scheduler: resource
// requests, parallel jobs, and job batches. A resource request is the
// user-facing contract from Section 3 of the paper: "N concurrent time-slots
// reserved for time span t with resource performance rate at least P and
// maximal resource price per time unit not higher than C".
package job

import (
	"fmt"
	"strconv"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// ResourceRequest captures a job's requirements.
type ResourceRequest struct {
	// Nodes is N, the number of concurrent slots (tasks) to co-allocate.
	Nodes int
	// Time is t, the wall time needed on an etalon (performance 1) node.
	// On a node of performance P the task runs ceil(Time/P) ticks.
	Time sim.Duration
	// MinPerformance is P, the minimal acceptable node performance rate.
	MinPerformance float64
	// MaxPrice is C, the maximal acceptable price per time unit.
	// ALP enforces it per slot; AMP converts it into the job budget
	// S = BudgetFactor·C·t·N and enforces the budget on the whole window.
	MaxPrice sim.Money
	// BudgetFactor is the ρ coefficient from Section 6 (S = ρ·C·t·N).
	// Zero means 1.0 (the paper's default experiments).
	BudgetFactor float64
	// Needs are the non-performance node requirements (RAM, disk, OS,
	// tags) from the paper's resource-request description in Section 2.
	// The zero value matches every node.
	Needs resource.Requirements
	// Deadline, when positive, requires every task of the job to finish
	// at or before this time: window start + runtime ≤ Deadline on every
	// chosen slot. Zero means unconstrained (the paper's experiments).
	// Deadline-and-budget-constrained requests are the classic economic
	// scheduling contract (Buyya et al., the paper's ref [6]).
	Deadline sim.Time
}

// Rho returns the effective budget factor (1.0 when unset).
func (r ResourceRequest) Rho() float64 {
	if r.BudgetFactor <= 0 {
		return 1.0
	}
	return r.BudgetFactor
}

// Budget returns the job's maximal budget S = ρ·C·t·N used by AMP.
func (r ResourceRequest) Budget() sim.Money {
	return sim.Money(r.Rho()) * r.MaxPrice * sim.Money(r.Time) * sim.Money(r.Nodes)
}

// Validate reports an error when the request is unsatisfiable by
// construction.
func (r ResourceRequest) Validate() error {
	if r.Nodes <= 0 {
		return fmt.Errorf("job: request needs %d nodes, want >= 1", r.Nodes)
	}
	if r.Time <= 0 {
		return fmt.Errorf("job: request has non-positive time span %v", r.Time)
	}
	if r.MinPerformance <= 0 {
		return fmt.Errorf("job: request has non-positive minimal performance %v", r.MinPerformance)
	}
	if r.MaxPrice < 0 || !r.MaxPrice.IsFinite() {
		return fmt.Errorf("job: request has invalid max price %v", r.MaxPrice)
	}
	if r.BudgetFactor < 0 {
		return fmt.Errorf("job: request has negative budget factor %v", r.BudgetFactor)
	}
	if err := r.Needs.Validate(); err != nil {
		return fmt.Errorf("job: %w", err)
	}
	if r.Deadline < 0 {
		return fmt.Errorf("job: request has negative deadline %v", r.Deadline)
	}
	return nil
}

// String renders the request compactly.
func (r ResourceRequest) String() string { return string(r.Append(nil)) }

// Append appends the request to b as String renders it, e.g.
// "N=2 t=80 P>=1.00 C<=5.00 rho=1.00".
func (r ResourceRequest) Append(b []byte) []byte {
	b = strconv.AppendInt(append(b, "N="...), int64(r.Nodes), 10)
	b = strconv.AppendInt(append(b, " t="...), int64(r.Time), 10)
	b = strconv.AppendFloat(append(b, " P>="...), r.MinPerformance, 'f', 2, 64)
	b = strconv.AppendFloat(append(b, " C<="...), float64(r.MaxPrice), 'f', 2, 64)
	return strconv.AppendFloat(append(b, " rho="...), r.Rho(), 'f', 2, 64)
}

// Job is one independent parallel application in the batch.
type Job struct {
	// Name identifies the job in charts and experiment output.
	Name string
	// Request is the job's resource request.
	Request ResourceRequest
	// Priority orders jobs within a batch; lower values are scheduled
	// first (the Section 4 example gives Job 1 the highest priority).
	Priority int
}

// Validate checks the job.
func (j *Job) Validate() error {
	if j == nil {
		return fmt.Errorf("job: nil job")
	}
	if j.Name == "" {
		return fmt.Errorf("job: job with empty name")
	}
	if err := j.Request.Validate(); err != nil {
		return fmt.Errorf("job %s: %w", j.Name, err)
	}
	return nil
}

// String renders the job with its request.
func (j *Job) String() string {
	return fmt.Sprintf("%s{%v, prio=%d}", j.Name, j.Request, j.Priority)
}
