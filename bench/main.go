// Command bench is the repository's one benchmark harness: it drives the
// production scheduling path (metasched.Service, and durable.Service on the
// churn workload) with seeded inputs from a single goroutine, checks the
// outputs, and reports end-to-end metrics with tracing off and per-layer
// metrics from a separate traced pass. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// minReps is the floor on untraced repetitions when the run is sized by a
// time budget; defaultReps is the count when it is not.
const (
	minReps     = 3
	defaultReps = 5
	// twinRounds is how many rounds of its twin a sharding-twin workload
	// replays to compare placement transcripts.
	twinRounds = 8
)

// options selects what one workload run does.
type options struct {
	seed uint64
	// reps fixes the untraced repetitions; 0 sizes them by seconds.
	reps    int
	seconds float64
	// traced adds the traced pass; untraced false keeps a single untraced
	// repetition as the traced pass's reference.
	traced, untraced bool
	smoke            bool
	outDir           string
	// corrupt maps a pass label ("rep2", "traced", "journaled", "twin") to a
	// corruption of that pass's session; only the smoke test sets it.
	corrupt map[string]func(s *session, round int)
}

// enough reports whether n untraced repetitions suffice: one when they only
// serve as the traced pass's reference, the fixed count when there is one,
// else as many as fit the time budget after the minimum.
func (o options) enough(n int, elapsed, last time.Duration) bool {
	switch {
	case !o.untraced:
		return true
	case o.reps > 0:
		return n >= o.reps
	default:
		return n >= minReps && elapsed+last > time.Duration(o.seconds*float64(time.Second))
	}
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Name       string                 `json:"name"`
	Why        string                 `json:"why"`
	Seed       uint64                 `json:"seed"`
	Reps       int                    `json:"reps"`
	Correct    bool                   `json:"correct"`
	Violations []string               `json:"violations,omitempty"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	StateHash  string                 `json:"state_hash"`
	Transcript string                 `json:"transcript_hash"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

// runWorkload runs one workload: untraced repetitions, the gates, and the
// traced pass. Gate violations land in the result; an error means the
// harness could not run.
func runWorkload(sp spec, opt options) (*workloadResult, error) {
	if opt.smoke {
		sp = sp.smoke()
	}
	res := &workloadResult{Name: sp.name, Why: sp.why, Seed: opt.seed}
	tmp := filepath.Join(opt.outDir, "tmp-"+sp.name)
	violate := func(label string, vs []string) {
		for _, v := range vs {
			res.Violations = append(res.Violations, label+": "+v)
		}
	}

	// Untraced repetitions, each a fresh session from the same seed.
	var reps []*repStats
	start := time.Now()
	for i := 0; ; i++ {
		repStart := time.Now()
		label := fmt.Sprintf("rep%d", i+1)
		p := &pass{sp: sp, seed: opt.seed, dir: tmp, corrupt: opt.corrupt[label]}
		st, vs, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", sp.name, label, err)
		}
		violate(label, vs)
		reps = append(reps, st)
		if got, want := st.ledger(), reps[0].ledger(); got != want {
			violate(label, []string{fmt.Sprintf("deterministic outputs differ from rep1: %s vs %s", got, want)})
		}
		if opt.enough(len(reps), time.Since(start), time.Since(repStart)) {
			break
		}
	}
	first := reps[0]
	res.Reps = len(reps)
	res.StateHash = fmt.Sprintf("%016x", first.hash)
	res.Transcript = fmt.Sprintf("%016x", first.transcript[len(first.transcript)-1])
	for _, r := range reps {
		res.Attempted += r.submitted
		res.Failed += r.failed
	}
	if opt.untraced {
		res.EndToEnd = endToEnd(sp, reps)
	}

	// The sharded and unsharded twins must place the same jobs in the same
	// windows: replay the twin's first rounds and compare transcripts.
	if sp.twin != "" {
		twin, _ := workloadByName(sp.twin)
		if opt.smoke {
			twin = twin.smoke()
		}
		if twin.rounds > twinRounds {
			twin.rounds = twinRounds
		}
		p := &pass{sp: twin, seed: opt.seed, corrupt: opt.corrupt["twin"]}
		st, vs, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("%s twin %s: %w", sp.name, twin.name, err)
		}
		violate("twin", vs)
		if got, want := st.transcript[twin.rounds-1], first.transcript[twin.rounds-1]; got != want {
			violate("twin", []string{fmt.Sprintf("%s placed transcript %x after %d rounds, %s placed %x",
				twin.name, got, twin.rounds, sp.name, want)})
		}
	}

	if opt.traced {
		t, tracers, vs, err := runTraced(sp, opt, tmp, first.hash)
		if err != nil {
			return nil, err
		}
		res.Violations = append(res.Violations, vs...)
		res.PerLayer = perLayer(sp, t, median(first.roundMs))
		if err := writeTrace(filepath.Join(opt.outDir, "trace-"+sp.name+".json"), tracers); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// runTraced makes the traced pass: the session driven through the step API
// with the layers replayed, and for the churn workload a second, journaled
// session through durable.Service.Tick with the checkpoints made explicitly.
// Both must end in the untraced repetitions' state.
func runTraced(sp spec, opt options, tmp string, want uint64) (*tracedPass, map[string]*tracer, []string, error) {
	var violations []string
	t := &tracedPass{lay: samples{}}
	tracers := map[string]*tracer{"step": newTracer()}
	p := &pass{sp: sp, seed: opt.seed, tr: tracers["step"], lay: t.lay, stepAPI: true, bare: true, corrupt: opt.corrupt["traced"]}
	st, vs, err := p.run()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s traced pass: %w", sp.name, err)
	}
	for _, v := range vs {
		violations = append(violations, "traced: "+v)
	}
	if st.hash != want {
		violations = append(violations, fmt.Sprintf("traced: state hash %x differs from the untraced %x", st.hash, want))
	}
	t.st = st
	if sp.churn {
		vs, err := pairedPasses(sp, opt, tmp, t, tracers)
		if err != nil {
			return nil, nil, nil, err
		}
		violations = append(violations, vs...)
	}
	return t, tracers, violations, nil
}

// pairedPasses prices durability on the churn workload: a journaled session
// (through durable.Service, the checkpoints made as timed calls) and a bare
// one play the same rounds in lockstep, taking turns to go first, so the
// per-round difference of their wall times is free of machine drift. Both
// must end in the step-API pass's state.
func pairedPasses(sp spec, opt options, tmp string, t *tracedPass, tracers map[string]*tracer) ([]string, error) {
	t.dlay = samples{}
	tracers["journaled"], tracers["bare"] = newTracer(), newTracer()
	passes := [2]*pass{
		{sp: sp, seed: opt.seed, dir: tmp, tr: tracers["journaled"], lay: t.dlay, explicitCkpt: true, corrupt: opt.corrupt["journaled"]},
		{sp: sp, seed: opt.seed, bare: true, tr: tracers["bare"]},
	}
	var open [2]*running
	for i, p := range passes {
		r, err := p.open()
		if err != nil {
			return nil, fmt.Errorf("%s paired passes: %w", sp.name, err)
		}
		defer r.discard()
		open[i] = r
	}
	for i := 0; i < sp.rounds; i++ {
		for k := 0; k < 2; k++ {
			if err := open[(i+k)%2].step(); err != nil {
				return nil, fmt.Errorf("%s paired passes: %w", sp.name, err)
			}
		}
	}
	var violations []string
	labels := [2]string{"journaled", "bare"}
	var stats [2]*repStats
	for i, r := range open {
		st, vs, err := r.close()
		if err != nil {
			return nil, fmt.Errorf("%s %s pass: %w", sp.name, labels[i], err)
		}
		for _, v := range vs {
			violations = append(violations, labels[i]+": "+v)
		}
		if st.hash != t.st.hash {
			violations = append(violations, fmt.Sprintf("%s: state hash %x differs from the step-API pass's %x", labels[i], st.hash, t.st.hash))
		}
		stats[i] = st
	}
	t.dst, t.bareRoundMs = stats[0], stats[1].roundMs
	return violations, nil
}

// environment records where a result was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// resultFile is what out/result.json holds and -compare reads.
type resultFile struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func (f *resultFile) correct() bool {
	for _, w := range f.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// runSet runs the selected workloads and prints each one's metrics.
func runSet(specs []spec, opt options, out io.Writer) (*resultFile, error) {
	file := &resultFile{Env: currentEnvironment()}
	for _, sp := range specs {
		res, err := runWorkload(sp, opt)
		if err != nil {
			return nil, err
		}
		file.Workloads = append(file.Workloads, res)
		printResult(out, res)
	}
	return file, nil
}

func printResult(out io.Writer, res *workloadResult) {
	fmt.Fprintf(out, "== %s  seed=%d reps=%d attempted=%d failed=%d state=%s transcript=%s\n   why: %s\n",
		res.Name, res.Seed, res.Reps, res.Attempted, res.Failed, res.StateHash, res.Transcript, res.Why)
	printMetrics(out, endToEndDefs, res.EndToEnd)
	printMetrics(out, perLayerDefs, res.PerLayer)
	for _, v := range res.Violations {
		fmt.Fprintf(out, "   VIOLATION %s\n", v)
	}
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "   %-32s %14.6g %-8s", d.name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(out, " n=%d", v.Samples)
		}
		if len(v.Runs) > 1 {
			fmt.Fprintf(out, " spread=%.1f%%", 100*spread(v.Runs))
		}
		fmt.Fprintln(out)
	}
}

// contractLine is the last line of a single-workload run: the result in the
// shape BENCHMARK.json's driver reads.
func contractLine(res *workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for name, v := range res.PerLayer {
			metrics[name] = value{v.Value, v.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			if v, ok := res.EndToEnd[d.name]; ok && d.contract {
				metrics[d.name] = value{v.Value, v.Unit}
			}
		}
	}
	failed := res.Failed
	if !res.Correct {
		failed = res.Attempted
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and end with the driver's JSON line")
	seed := fs.Uint64("seed", 1, "seed of every generated input (2 is the held-out seed)")
	seconds := fs.Float64("seconds", 0, "size the untraced repetitions to about this many seconds (at least 3 repetitions)")
	reps := fs.Int("reps", 0, "fix the number of untraced repetitions (default 5 without -seconds)")
	trace := fs.String("trace", "", "0: untraced repetitions only; 1: traced pass only; unset: both")
	smoke := fs.Bool("smoke", false, "tiny shape of every workload (20 nodes, 3 rounds, 1 repetition)")
	outDir := fs.String("out", "out", "directory for result.json, traces and scratch files")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced set twice and compare the two (A/A)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	opt := options{seed: *seed, reps: *reps, seconds: *seconds, smoke: *smoke, outDir: *outDir,
		untraced: *trace != "1", traced: *trace != "0"}
	switch {
	case *trace != "" && *trace != "0" && *trace != "1":
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	case *smoke:
		opt.reps = 1
	case opt.reps == 0 && opt.seconds == 0:
		opt.reps = defaultReps
	}
	specs := workloads
	if *workload != "" {
		sp, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []spec{sp}
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *selfcheck {
		return selfCheck(specs, opt, stdout, stderr)
	}
	file, err := runSet(specs, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(opt.outDir, "result.json"), file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *workload != "" {
		fmt.Fprintln(stdout, contractLine(file.Workloads[0], !opt.untraced))
	}
	if !file.correct() {
		return 1
	}
	return 0
}
