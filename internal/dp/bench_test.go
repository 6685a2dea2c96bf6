package dp

import (
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// benchAlts builds a 6-job, 30-alternatives-each instance resembling a rich
// AMP search result.
func benchAlts(b *testing.B) (*job.Batch, Alternatives, Limits) {
	b.Helper()
	rng := sim.NewRNG(5)
	batch := synthBatch(6)
	alts := Alternatives{}
	for i := 0; i < 6; i++ {
		ws := make([]*slot.Window, 30)
		for a := range ws {
			ws[a] = synthWindow(jobName(i), 0,
				sim.Duration(rng.IntBetween(20, 150)), sim.Money(rng.FloatBetween(1, 6)))
		}
		alts[batch.At(i).Name] = ws
	}
	limits, err := ComputeLimits(batch, alts)
	if err != nil {
		b.Fatal(err)
	}
	return batch, alts, limits
}

func BenchmarkMinimizeTime(b *testing.B) {
	batch, alts, limits := benchAlts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeTime(batch, alts, limits.Budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeCost(b *testing.B) {
	batch, alts, limits := benchAlts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeCost(batch, alts, limits.Quota); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeLimits(b *testing.B) {
	batch, alts, _ := benchAlts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeLimits(batch, alts); err != nil {
			b.Fatal(err)
		}
	}
}

// shapedAlts builds a jobs×altsPerJob instance with durations drawn from
// [durMin, durMax]. Long durations blow up the dense table's time axis
// (q = Σ max duration) while leaving the frontier size untouched, so the
// two shapes below separate the engines' scaling behaviors.
func shapedAlts(b *testing.B, jobs, altsPerJob int, durMin, durMax int) (*job.Batch, Alternatives) {
	b.Helper()
	rng := sim.NewRNG(7)
	batch := synthBatch(jobs)
	alts := Alternatives{}
	for i := 0; i < jobs; i++ {
		ws := make([]*slot.Window, altsPerJob)
		for a := range ws {
			ws[a] = synthWindow(jobName(i), 0,
				sim.Duration(rng.IntBetween(durMin, durMax)), sim.Money(rng.FloatBetween(1, 6)))
		}
		alts[batch.At(i).Name] = ws
	}
	return batch, alts
}

// benchShapes are the workload shapes of the dense-vs-frontier comparison:
// large-quota stresses the dense time axis, many-alternatives stresses the
// per-stage merge.
var benchShapes = []struct {
	name             string
	jobs, alternates int
	durMin, durMax   int
}{
	{"large-quota", 6, 30, 500, 4000},
	{"many-alternatives", 10, 120, 20, 150},
}

// BenchmarkFrontierDP measures the complete per-iteration optimizer work on
// the sparse engine: one backward pass building both frontiers, the limit
// derivation (Eqs. 2–3), and the MinimizeTime query.
func BenchmarkFrontierDP(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			batch, alts := shapedAlts(b, s.jobs, s.alternates, s.durMin, s.durMax)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fr, err := NewFrontier(batch, alts)
				if err != nil {
					b.Fatal(err)
				}
				limits, err := fr.Limits()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fr.MinimizeTime(limits.Budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDenseDP measures the same per-iteration work on the dense
// reference tables: the MaxIncome table for B*, then the cost-axis
// MinimizeTime table.
func BenchmarkDenseDP(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			batch, alts := shapedAlts(b, s.jobs, s.alternates, s.durMin, s.durMax)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				limits, err := ComputeLimitsDense(batch, alts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := MinimizeTimeDense(batch, alts, limits.Budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
