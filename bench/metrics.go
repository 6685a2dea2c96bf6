package main

import "math"

// metricDef names one reported metric. Names are the benchmark's contract:
// BENCHMARK.json, README.md and -compare all refer to them.
type metricDef struct {
	name, unit string
	// higher marks a metric where more is better; the rest are
	// lower-is-better.
	higher bool
	// bound is the share of the baseline by which the metric may worsen
	// before a change counts as a regression; BENCHMARK.json carries the same
	// number. Exact metrics are deterministic for a seed: -compare requires
	// them equal, and their bound only serves BENCHMARK.json's driver, which
	// pools runs of different seeds.
	bound float64
	exact bool
	// contract marks the end-to-end metrics listed in BENCHMARK.json: those
	// defined and non-zero on every workload and steady across seeds.
	contract bool
	// churnOnly metrics exist on the journaled workload alone.
	churnOnly bool
}

// endToEndDefs are the metrics a user of the scheduler sees, measured with
// tracing off.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, contract: true},
	{name: "round_ms_p50", unit: "ms", bound: 0.25, contract: true},
	{name: "round_ms_p95", unit: "ms", bound: 0.25, contract: true},
	{name: "jobs_per_s", unit: "jobs/s", higher: true, bound: 0.25, contract: true},
	{name: "alloc_mb_per_round", unit: "MB", bound: 0.03, contract: true},
	{name: "wait_ticks_p50", unit: "ticks", exact: true},
	{name: "wait_ticks_p95", unit: "ticks", exact: true},
	{name: "failed_share", unit: "ratio", exact: true},
	{name: "alts_per_job", unit: "count", higher: true, bound: 0.05, exact: true, contract: true},
	{name: "plan_time_per_job", unit: "ticks", bound: 0.20, exact: true, contract: true},
	{name: "plan_cost_per_job", unit: "credits", bound: 0.25, exact: true, contract: true},
	{name: "ckpt_round_ms_p50", unit: "ms", bound: 0.25, churnOnly: true},
	{name: "recover_s", unit: "s", bound: 0.25, churnOnly: true},
	{name: "journal_kb_per_round", unit: "KB", exact: true, churnOnly: true},
}

// perLayerDefs are the traced pass's metrics, prefixed by the module whose
// public functions the spans surround. Timings are medians over rounds and
// counts are per-round means unless the name says otherwise.
var perLayerDefs = []metricDef{
	{name: "metasched.begin_round_ms", unit: "ms"},
	{name: "metasched.evaluate_ms", unit: "ms"},
	{name: "metasched.apply_ms", unit: "ms"},
	{name: "metasched.finish_ms", unit: "ms"},
	{name: "metasched.submit_us", unit: "us"},
	{name: "metasched.fault_handler_ms", unit: "ms"},
	{name: "metasched.stale_windows", unit: "count"},
	{name: "metasched.requeues", unit: "count"},
	{name: "metasched.cancelled", unit: "count"},
	{name: "metasched.eval_queue_depth_max", unit: "count"},
	{name: "gridsim.publish_ms", unit: "ms"},
	{name: "gridsim.export_state_ms", unit: "ms"},
	{name: "alloc.search_ms", unit: "ms"},
	{name: "alloc.scan_ms", unit: "ms"},
	{name: "alloc.slots_examined", unit: "count"},
	{name: "alloc.windows_found", unit: "count", higher: true},
	{name: "alloc.windows_per_kslot", unit: "count", higher: true},
	{name: "shard.scan_ranks", unit: "count"},
	{name: "shard.critpath_ranks", unit: "count"},
	{name: "shard.merged", unit: "count"},
	{name: "shard.imbalance_x1000", unit: "count"},
	{name: "slot.subtract_ms", unit: "ms"},
	{name: "slot.subtract_us_per_window", unit: "us"},
	{name: "slot.clone_us", unit: "us"},
	{name: "slot.len", unit: "count"},
	{name: "dp.frontier_ms", unit: "ms"},
	{name: "dp.frontier_points", unit: "count"},
	{name: "dp.pruned", unit: "count"},
	{name: "durable.tick_overhead_ms", unit: "ms"},
	{name: "durable.bare_round_ms_p50", unit: "ms"},
	{name: "durable.checkpoint_ms", unit: "ms"},
	{name: "durable.ckpt_round_ms_p50", unit: "ms"},
	{name: "durable.journal_append_us", unit: "us"},
	{name: "durable.recover_s", unit: "s"},
	{name: "durable.recover_open_ms", unit: "ms"},
	{name: "durable.records_replayed", unit: "count"},
	{name: "codec.checkpoint_encode_ms", unit: "ms"},
	{name: "codec.checkpoint_mb", unit: "MB"},
	{name: "codec.encode_record_us", unit: "us"},
	{name: "codec.journal_kb_per_round", unit: "KB"},
	{name: "runtime.heap_sys_mb", unit: "MB"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "trace.round_ms_p50", unit: "ms"},
	{name: "trace.explained_share", unit: "ratio", higher: true},
	{name: "trace_overhead_share", unit: "ratio"},
}

// metricValue is one reported number. Runs holds the per-repetition values
// of a wall metric, from which -compare takes the run-to-run spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Runs    []float64 `json:"runs,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// endToEnd folds the untraced repetitions into the end-to-end metrics: wall
// metrics are the median over repetitions of the per-repetition statistic,
// percentiles pool the rounds of all repetitions, exact metrics come from
// the first repetition (the identity gate has already matched the rest).
func endToEnd(sp spec, reps []*repStats) map[string]metricValue {
	perRep := func(f func(*repStats) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	var rounds, ckpts []float64
	for _, r := range reps {
		rounds = append(rounds, r.roundMs...)
		ckpts = append(ckpts, r.ckptMs...)
	}
	first := reps[0]
	pooled := func(xs []float64, p float64, f func(*repStats) []float64) metricValue {
		return metricValue{Value: percentile(xs, p), Samples: len(xs),
			Runs: perRep(func(r *repStats) float64 { return percentile(f(r), p) })}
	}
	medianOf := func(f func(*repStats) float64) metricValue {
		runs := perRep(f)
		return metricValue{Value: median(runs), Runs: runs}
	}
	roundsOf := func(r *repStats) []float64 { return r.roundMs }
	out := map[string]metricValue{
		"setup_s":            medianOf(func(r *repStats) float64 { return r.setupS }),
		"round_ms_p50":       pooled(rounds, 0.5, roundsOf),
		"round_ms_p95":       pooled(rounds, 0.95, roundsOf),
		"jobs_per_s":         medianOf(func(r *repStats) float64 { return ratio(float64(r.placed), r.wallS) }),
		"alloc_mb_per_round": medianOf(func(r *repStats) float64 { return r.allocMB }),
		"wait_ticks_p50":     {Value: percentile(first.waits, 0.5), Samples: len(first.waits)},
		"wait_ticks_p95":     {Value: percentile(first.waits, 0.95), Samples: len(first.waits)},
		"failed_share":       {Value: ratio(float64(first.failed), float64(first.submitted))},
		"alts_per_job":       {Value: ratio(float64(first.alts), float64(first.batch))},
		"plan_time_per_job":  {Value: ratio(first.planTime, float64(first.planJobs))},
		"plan_cost_per_job":  {Value: ratio(first.planCost, float64(first.planJobs))},
	}
	if sp.churn {
		out["ckpt_round_ms_p50"] = pooled(ckpts, 0.5, func(r *repStats) []float64 { return r.ckptMs })
		out["recover_s"] = medianOf(func(r *repStats) float64 { return r.recoverS })
		out["journal_kb_per_round"] = metricValue{Value: float64(first.journalBytes) / 1e3 / float64(sp.rounds)}
	}
	for _, d := range endToEndDefs {
		if v, ok := out[d.name]; ok {
			v.Unit = d.unit
			out[d.name] = v
		}
	}
	return out
}

// tracedPass is what the traced pass of a workload produced.
type tracedPass struct {
	// lay holds the step-API pass's layer samples; st its stats.
	lay samples
	st  *repStats
	// dlay and dst are the journaled pass of a churn workload, bareRoundMs
	// the round times of the bare session paired with it; nil otherwise.
	dlay        samples
	dst         *repStats
	bareRoundMs []float64
}

// perLayer folds the traced pass into the per-layer metrics. Metrics a
// workload does not exercise (shard.* unsharded, durable.* and codec.* off
// the journaled workload) read 0. untracedP50 is the same seed's
// round_ms_p50 with tracing off.
func perLayer(sp spec, t *tracedPass, untracedP50 float64) map[string]metricValue {
	lay := t.lay
	mean := func(name string) float64 { return ratio(sum(lay[name]), float64(len(lay[name]))) }
	tracedP50 := median(t.st.roundMs)
	explained := median(lay["gridsim.publish_ms"]) + median(lay["alloc.search_ms"]) + median(lay["dp.frontier_ms"])
	v := map[string]float64{
		"metasched.begin_round_ms":       median(lay["metasched.begin_round_ms"]),
		"metasched.evaluate_ms":          median(lay["metasched.evaluate_ms"]),
		"metasched.apply_ms":             median(lay["metasched.apply_ms"]),
		"metasched.finish_ms":            median(lay["metasched.finish_ms"]),
		"metasched.submit_us":            median(lay["metasched.submit_us"]),
		"metasched.fault_handler_ms":     median(lay["metasched.fault_handler_ms"]),
		"metasched.stale_windows":        sum(lay["metasched.stale_windows"]),
		"metasched.requeues":             float64(t.st.retry.Requeued),
		"metasched.cancelled":            float64(t.st.retry.Cancelled),
		"metasched.eval_queue_depth_max": percentile(lay["metasched.eval_queue_depth"], 1),
		"gridsim.publish_ms":             median(lay["gridsim.publish_ms"]),
		"alloc.search_ms":                median(lay["alloc.search_ms"]),
		"alloc.scan_ms":                  median(lay["alloc.scan_ms"]),
		"alloc.slots_examined":           mean("alloc.slots_examined"),
		"alloc.windows_found":            mean("alloc.windows_found"),
		"alloc.windows_per_kslot":        ratio(1e3*sum(lay["alloc.windows_found"]), sum(lay["alloc.slots_examined"])),
		"shard.scan_ranks":               mean("shard.scan_ranks"),
		"shard.critpath_ranks":           mean("shard.critpath_ranks"),
		"shard.merged":                   mean("shard.merged"),
		"shard.imbalance_x1000":          math.Round(ratio(1e3*sum(lay["shard.max_ranks"])*float64(sp.shards), sum(lay["shard.scan_ranks"]))),
		"slot.subtract_ms":               median(lay["slot.subtract_ms"]),
		"slot.subtract_us_per_window":    ratio(1e3*sum(lay["slot.subtract_ms"]), sum(lay["alloc.windows_found"])),
		"slot.clone_us":                  median(lay["slot.clone_us"]),
		"slot.len":                       mean("slot.len"),
		"dp.frontier_ms":                 median(lay["dp.frontier_ms"]),
		"dp.frontier_points":             mean("dp.frontier_points"),
		"dp.pruned":                      mean("dp.pruned"),
		"runtime.heap_sys_mb":            t.st.heapSysMB,
		"runtime.gc_cycles":              t.st.gcCycles,
		"runtime.gc_pause_ms":            t.st.gcPauseMs,
		"trace.round_ms_p50":             tracedP50,
		"trace.explained_share":          ratio(explained, median(lay["metasched.evaluate_ms"])),
		"trace_overhead_share":           ratio(tracedP50, untracedP50) - 1,
	}
	if t.dst != nil {
		d := t.dlay
		diffs := make([]float64, len(t.bareRoundMs))
		for i, bare := range t.bareRoundMs {
			diffs[i] = t.dst.roundMs[i] - bare
		}
		v["durable.tick_overhead_ms"] = median(diffs)
		v["durable.bare_round_ms_p50"] = median(t.bareRoundMs)
		v["durable.checkpoint_ms"] = median(d["durable.checkpoint_ms"])
		v["durable.ckpt_round_ms_p50"] = median(t.dst.ckptMs)
		v["durable.journal_append_us"] = median(d["durable.journal_append_us"])
		v["durable.recover_s"] = t.dst.recoverS
		v["durable.recover_open_ms"] = median(d["durable.recover_open_ms"])
		if t.dst.recovery != nil {
			v["durable.records_replayed"] = float64(t.dst.recovery.RecordsReplayed)
		}
		v["gridsim.export_state_ms"] = median(d["gridsim.export_state_ms"])
		v["codec.checkpoint_encode_ms"] = median(d["codec.checkpoint_encode_ms"])
		v["codec.checkpoint_mb"] = percentile(d["codec.checkpoint_mb"], 1)
		v["codec.encode_record_us"] = median(d["codec.encode_record_us"])
		v["codec.journal_kb_per_round"] = float64(t.dst.journalBytes) / 1e3 / float64(sp.rounds)
	}
	out := make(map[string]metricValue, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}
