package metasched

import (
	"strings"

	"ecosched/internal/dp"
	"ecosched/internal/sim"
)

// Plan is a priced combination of chosen windows bound to the grid snapshot
// it was planned against. It promotes the optimistic commit check from an
// implicit property of the apply loop into a first-class value: the planner
// records the grid's mutation epoch at snapshot time, and the applier can
// ask Stale whether the environment moved underneath the plan before any
// window is committed.
//
// Staleness is advisory, never load-bearing: Apply re-validates every window
// through the grid's own Book checks regardless, so a stale plan whose
// windows still fit commits normally, and an epoch-fresh plan could not have
// been invalidated in the first place. The epoch exists so the service layer
// and the metrics can distinguish the fast path (snapshot provably exact)
// from the re-validated path, and so rejections carry enough context to
// postpone precisely the jobs whose windows died.
type Plan struct {
	// Iteration is the scheduler iteration that produced the plan.
	Iteration int
	// Epoch is the grid mutation epoch of the vacancy snapshot the search
	// ran against (gridsim.Grid.Epoch at publication time).
	Epoch uint64
	// Choices are the optimizer's chosen windows in batch order.
	Choices []dp.Choice
	// TotalTime and TotalCost are the combination's priced objective values.
	TotalTime sim.Duration
	TotalCost sim.Money
}

// newPlan binds the optimizer's combination to the snapshot epoch.
func newPlan(iteration int, epoch uint64, p *dp.Plan) *Plan {
	return &Plan{
		Iteration: iteration,
		Epoch:     epoch,
		Choices:   p.Choices,
		TotalTime: p.TotalTime,
		TotalCost: p.TotalCost,
	}
}

// Stale reports whether the grid has mutated since the plan's snapshot was
// taken. A fresh plan (equal epoch) is guaranteed to commit: no booking,
// failure, revocation, or clock movement happened in between. A stale plan
// may still commit — the mutation might not touch the chosen windows — which
// is why the applier re-validates instead of rejecting on staleness alone.
func (p *Plan) Stale(epoch uint64) bool { return p != nil && epoch != p.Epoch }

// CanonicalState appends the plan's deterministic serialization to b. The
// epoch is deliberately omitted: it is a change detector over histories, not
// observable state, and two sessions in identical states must serialize
// identically whatever mutation counts produced them (the applier's behavior
// depends only on the windows and the grid, never on the epoch value).
func (p *Plan) CanonicalState(b *strings.Builder) {
	if p == nil {
		return
	}
	for _, ch := range p.Choices {
		b.WriteString("chosen ")
		b.WriteString(ch.Job.Name)
		b.WriteString(" -> ")
		b.WriteString(ch.Window.String())
		b.WriteByte('\n')
	}
}
