package experiments

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
	"ecosched/internal/workload"
)

// RhoPoint is one ρ value's aggregate in the Section 6 budget-factor sweep
// (S = ρ·C·t·N).
type RhoPoint struct {
	Rho float64
	// Kept experiments and AMP's average job time/cost under the reduced
	// budget; ALP is unaffected by ρ and serves as the fixed reference.
	Kept        int
	AMPJobTime  float64
	AMPJobCost  float64
	AMPAltPerJb float64
	ALPJobTime  float64
	ALPJobCost  float64
}

// RhoSweep reruns the time-minimization study for each ρ, applying the
// factor to every generated job. The paper's Section 6 predicts that
// shrinking ρ reduces AMP's batch execution cost at the expense of time —
// trading back toward ALP's behavior.
func RhoSweep(cfg StudyConfig, rhos []float64) ([]RhoPoint, error) {
	out := make([]RhoPoint, 0, len(rhos))
	for _, rho := range rhos {
		if rho <= 0 {
			return nil, fmt.Errorf("experiments: non-positive rho %v", rho)
		}
		c := cfg
		c.JobGen.BudgetFactor = rho
		res, err := RunStudy(TimeMin, c)
		if err != nil {
			return nil, err
		}
		out = append(out, RhoPoint{
			Rho:         rho,
			Kept:        res.Kept,
			AMPJobTime:  res.AMP.JobTime.Mean(),
			AMPJobCost:  res.AMP.JobCost.Mean(),
			AMPAltPerJb: res.AMP.AlternativesPerJob(),
			ALPJobTime:  res.ALP.JobTime.Mean(),
			ALPJobCost:  res.ALP.JobCost.Mean(),
		})
	}
	return out, nil
}

// RenderRhoSweep prints the sweep as a table.
func RenderRhoSweep(points []RhoPoint) string {
	t := stats.NewTable("rho", "kept", "AMP time", "AMP cost", "AMP alt/job", "ALP time", "ALP cost")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.2f", p.Rho), p.Kept, p.AMPJobTime, p.AMPJobCost, p.AMPAltPerJb, p.ALPJobTime, p.ALPJobCost)
	}
	return t.String()
}

// PolicyPoint compares AMP's window policies (cheapest-N vs first-N) on the
// time-minimization pipeline.
type PolicyPoint struct {
	Policy     alloc.WindowPolicy
	Kept       int
	JobTime    float64
	JobCost    float64
	AltsPerJob float64
}

// PolicyAblation runs the study once per AMP window policy. Scenario
// streams are identical across policies (same seed), so differences are
// attributable to the policy alone.
func PolicyAblation(cfg StudyConfig) ([]PolicyPoint, error) {
	var out []PolicyPoint
	for _, pol := range []alloc.WindowPolicy{alloc.CheapestN, alloc.FirstN} {
		agg, kept, err := runAMPVariant(cfg, alloc.AMP{Policy: pol})
		if err != nil {
			return nil, err
		}
		out = append(out, PolicyPoint{
			Policy:     pol,
			Kept:       kept,
			JobTime:    agg.JobTime.Mean(),
			JobCost:    agg.JobCost.Mean(),
			AltsPerJob: agg.AlternativesPerJob(),
		})
	}
	return out, nil
}

// runAMPVariant runs the time-min pipeline for a single algorithm variant.
func runAMPVariant(cfg StudyConfig, algo alloc.Algorithm) (*AlgoAggregate, int, error) {
	agg := &AlgoAggregate{Name: algo.Name()}
	kept := 0
	sm := newStudyMetrics(cfg.Metrics)
	root := sim.NewRNG(cfg.Seed)
	for it := 0; it < cfg.Iterations; it++ {
		iterRNG := sim.NewRNG(root.Uint64() ^ uint64(it))
		sc, err := workload.GenerateScenario(cfg.SlotGen, cfg.JobGen, iterRNG)
		if err != nil {
			return nil, 0, err
		}
		out, ok, err := runAlgorithm(algo, sc, TimeMin, &cfg, &sm)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			continue
		}
		kept++
		record(agg, summarize(out), sc.Batch.Len(), cfg.seriesLength())
	}
	return agg, kept, nil
}

// PassesPoint measures the value of the multi-pass alternative search versus
// a single first-window pass: the optimizer can only be as good as the
// choice set it is given.
type PassesPoint struct {
	Label   string
	Kept    int
	ALPTime float64
	AMPTime float64
	ALPCost float64
	AMPCost float64
}

// PassesAblation compares first-only search against the unlimited
// multi-pass search on the time-min pipeline.
func PassesAblation(cfg StudyConfig) ([]PassesPoint, error) {
	var out []PassesPoint
	for _, mode := range []struct {
		label string
		opts  alloc.SearchOptions
	}{
		{"first-only", alloc.SearchOptions{FirstOnly: true}},
		{"multi-pass", alloc.SearchOptions{}},
	} {
		c := cfg
		c.Search = mode.opts
		res, err := RunStudy(TimeMin, c)
		if err != nil {
			return nil, err
		}
		out = append(out, PassesPoint{
			Label:   mode.label,
			Kept:    res.Kept,
			ALPTime: res.ALP.JobTime.Mean(),
			AMPTime: res.AMP.JobTime.Mean(),
			ALPCost: res.ALP.JobCost.Mean(),
			AMPCost: res.AMP.JobCost.Mean(),
		})
	}
	return out, nil
}

// ClusteredPoint compares a study on the statistical §5 slot lists against
// the structurally clustered ones.
type ClusteredPoint struct {
	Source  string
	Kept    int
	ALPTime float64
	AMPTime float64
	ALPCost float64
	AMPCost float64
	ALPAlt  float64
	AMPAlt  float64
}

// ClusteredAblation runs the time-min study with the paper's statistical
// slot generator and with the domain-structured clustered generator: the
// cluster structure concentrates same-start slots on same-performance
// nodes, which is friendlier to co-allocation (a window's members want a
// common start).
func ClusteredAblation(cfg StudyConfig) ([]ClusteredPoint, error) {
	var out []ClusteredPoint
	sources := []struct {
		label string
		src   workload.SlotSource
	}{
		{"statistical (§5)", nil},
		{"clustered domains", workload.DefaultClusteredGenerator()},
	}
	for _, s := range sources {
		c := cfg
		c.SlotSource = s.src
		res, err := RunStudy(TimeMin, c)
		if err != nil {
			return nil, err
		}
		out = append(out, ClusteredPoint{
			Source:  s.label,
			Kept:    res.Kept,
			ALPTime: res.ALP.JobTime.Mean(),
			AMPTime: res.AMP.JobTime.Mean(),
			ALPCost: res.ALP.JobCost.Mean(),
			AMPCost: res.AMP.JobCost.Mean(),
			ALPAlt:  res.ALP.AlternativesPerJob(),
			AMPAlt:  res.AMP.AlternativesPerJob(),
		})
	}
	return out, nil
}

// RenderClustered prints the comparison.
func RenderClustered(points []ClusteredPoint) string {
	t := stats.NewTable("slot source", "kept", "ALP time", "AMP time", "ALP alt/job", "AMP alt/job")
	for _, p := range points {
		t.AddRow(p.Source, p.Kept, p.ALPTime, p.AMPTime, p.ALPAlt, p.AMPAlt)
	}
	return t.String()
}
