// Package strategy implements the paper's future-work direction (Section 7,
// following refs [13, 14]): instead of a single schedule version, build a
// *scheduling strategy* — an ordered set of fallback execution versions per
// job — so that the batch survives environment dynamics such as node
// failures without a full re-scheduling pass.
//
// The ingredients come straight from the main scheme: the multi-pass
// alternative search already produces pairwise-disjoint windows, so any
// subset of them — one active window plus spares per job — is simultaneously
// reservable. A Strategy pairs every job's chosen (primary) window with its
// remaining alternatives as contingencies, earliest start first, and Execute
// plays the strategy against a fault plan's fail events.
package strategy

import (
	"fmt"
	"sort"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/fault"
	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// Version is one execution version of a job within a strategy.
type Version struct {
	Window *slot.Window
	// Primary marks the version chosen by the batch optimizer.
	Primary bool
}

// JobStrategy is the ordered version list for one job: the primary first,
// then contingencies in fallback order.
type JobStrategy struct {
	Job      *job.Job
	Versions []Version
}

// Redundancy returns the number of contingency versions.
func (js *JobStrategy) Redundancy() int {
	if len(js.Versions) == 0 {
		return 0
	}
	return len(js.Versions) - 1
}

// Strategy is a full batch strategy: one JobStrategy per job, all windows
// across all jobs pairwise disjoint (inherited from the alternative search).
type Strategy struct {
	Jobs []*JobStrategy
}

// Build assembles a strategy from an optimizer plan and the full search
// result it was chosen from: each job's primary is its plan window, and
// every other alternative becomes a contingency, the earliest start first
// (ties to the cheaper), which minimizes the completion delay after a
// failure.
func Build(plan *dp.Plan, search *alloc.SearchResult) (*Strategy, error) {
	if plan == nil || search == nil {
		return nil, fmt.Errorf("strategy: nil plan or search result")
	}
	st := &Strategy{}
	for _, choice := range plan.Choices {
		alts := search.Alternatives[choice.Job.Name]
		if len(alts) == 0 {
			return nil, fmt.Errorf("strategy: job %s has no alternatives in the search result", choice.Job.Name)
		}
		js := &JobStrategy{Job: choice.Job}
		js.Versions = append(js.Versions, Version{Window: choice.Window, Primary: true})
		var spares []*slot.Window
		for _, w := range alts {
			if w != choice.Window {
				spares = append(spares, w)
			}
		}
		sortSpares(spares)
		for _, w := range spares {
			js.Versions = append(js.Versions, Version{Window: w})
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st, nil
}

func sortSpares(spares []*slot.Window) {
	sort.SliceStable(spares, func(i, k int) bool {
		a, b := spares[i], spares[k]
		if a.Start() != b.Start() {
			return a.Start() < b.Start()
		}
		return a.Cost() < b.Cost()
	})
}

// TotalRedundancy returns the summed contingency count over jobs.
func (s *Strategy) TotalRedundancy() int {
	var n int
	for _, js := range s.Jobs {
		n += js.Redundancy()
	}
	return n
}

// windowSurvives reports whether the window completes despite the plan's
// failures: a fail event kills a placement when it strikes the placement's
// node strictly before the placement finishes.
func windowSurvives(w *slot.Window, failures []fault.Event) bool {
	for _, f := range failures {
		for _, p := range w.Placements {
			if p.Source.Node.Label() == f.Node && f.At < p.Used.End {
				return false
			}
		}
	}
	return true
}

// JobOutcome records one job's fate under an executed strategy.
type JobOutcome struct {
	Job *job.Job
	// Completed is false when every version was killed by failures.
	Completed bool
	// VersionUsed is the index of the surviving version (0 = primary).
	VersionUsed int
	// Window is the surviving window (nil if not completed).
	Window *slot.Window
	// Delay is the start-time slip relative to the primary version.
	Delay sim.Duration
	// ExtraCost is the cost slip relative to the primary version
	// (negative when the fallback is cheaper).
	ExtraCost sim.Money
}

// Report summarizes a strategy execution.
type Report struct {
	Outcomes []JobOutcome
	// Completed counts jobs that finished on some version.
	Completed int
	// PrimaryCompleted counts jobs whose primary survived.
	PrimaryCompleted int
	// TotalDelay and TotalExtraCost sum the fallback penalties over
	// completed jobs.
	TotalDelay     sim.Duration
	TotalExtraCost sim.Money
}

// CompletionRate returns Completed / number of jobs.
func (r *Report) CompletionRate() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	return float64(r.Completed) / float64(len(r.Outcomes))
}

// Execute plays the strategy against a failure plan (nil means no
// failures): each job runs its first version not killed by any fail event.
// Because all versions are disjoint, switches never conflict with other
// jobs' versions. A strategy reserves no vacancy, so an event other than a
// fail has no meaning here and is an error.
func (s *Strategy) Execute(plan *fault.Plan) (*Report, error) {
	var failures []fault.Event
	if plan != nil {
		failures = plan.Events
	}
	for _, e := range failures {
		if e.Kind != fault.Fail {
			return nil, fmt.Errorf("strategy: cannot execute %v event %v", e.Kind, e)
		}
	}
	rep := &Report{}
	for _, js := range s.Jobs {
		out := JobOutcome{Job: js.Job, VersionUsed: -1}
		primary := js.Versions[0].Window
		for idx, v := range js.Versions {
			if windowSurvives(v.Window, failures) {
				out.Completed = true
				out.VersionUsed = idx
				out.Window = v.Window
				out.Delay = v.Window.Start().Sub(primary.Start())
				if out.Delay < 0 {
					out.Delay = 0 // an earlier contingency is not a penalty
				}
				out.ExtraCost = v.Window.Cost() - primary.Cost()
				break
			}
		}
		if out.Completed {
			rep.Completed++
			if out.VersionUsed == 0 {
				rep.PrimaryCompleted++
			}
			rep.TotalDelay += out.Delay
			rep.TotalExtraCost += out.ExtraCost
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}
