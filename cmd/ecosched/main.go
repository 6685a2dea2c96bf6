// Command ecosched reproduces every table and figure of the paper's
// evaluation from the command line and runs the metascheduler service an
// operator drives. Each study subcommand regenerates one experiment; see
// EXPERIMENTS.md for the paper-vs-measured record. `ecosched help` lists the
// subcommands and flags.
//
// The paper's full runs use -iterations 25000; the default of 2000 keeps a
// laptop run under a minute while preserving every reported shape.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"

	"ecosched/internal/experiments"
	"ecosched/internal/metrics"
	"ecosched/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ecosched:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line that names a flag its subcommand does not
// read; the command exits 2 on it.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// subcommandFlags lists, per subcommand, the flags it reads. -metrics and
// -pprof are read by every subcommand and are not listed.
var subcommandFlags = map[string][]string{
	"example":    nil,
	"fig4":       {"seed", "iterations"},
	"fig5":       {"seed", "iterations", "series"},
	"fig6":       {"seed", "iterations"},
	"rho":        {"seed", "iterations"},
	"passes":     {"seed", "iterations"},
	"policy":     {"seed", "iterations"},
	"robustness": {"seed", "iterations"},
	"scaling":    {"seed"},
	"clustered":  {"seed", "iterations"},
	"baseline":   {"seed", "iterations"},
	"dynamics":   {"seed", "iterations"},
	"export":     {"seed", "file"},
	"replay":     {"file"},
	"pareto":     {"seed"},
	"gridsim":    {"seed", "shards"},
	"chaos":      {"seed", "faults", "journal", "checkpoint-every", "shards"},
	"recover":    {"seed", "journal", "checkpoint-every", "shards"},
	"mc":         {"universe", "depth", "states", "mutation", "cex", "liveness"},
	"help":       nil,
}

// checkFlags rejects a flag set on the command line that cmd does not read,
// which would otherwise run the subcommand as if it had not been given. An
// unknown subcommand is left to dispatch to report.
func checkFlags(cmd string, fs *flag.FlagSet) error {
	reads, known := subcommandFlags[cmd]
	if !known {
		return nil
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "metrics" && f.Name != "pprof" && !slices.Contains(reads, f.Name) {
			err = &usageError{fmt.Sprintf("%s does not read -%s", cmd, f.Name)}
		}
	})
	return err
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "root RNG seed")
	iterations := fs.Int("iterations", 2000, "simulated scheduling iterations (paper: 25000)")
	series := fs.Int("series", 300, "kept experiments in the Fig. 5 series")
	file := fs.String("file", "", "scenario file for export/replay (\"-\" = stdout)")
	shards := fs.Int("shards", 1, "federate the grid into K sharded domains with cross-shard combination (schedules are identical for every value)")
	faults := fs.String("faults", "", "fault plan for the chaos scenario, e.g. \"fail@300:cpu3;recover@600:cpu3;revoke@450:cpu5:500-700\" (empty = seeded random plan)")
	journal := fs.String("journal", "", "write-ahead journal path for the chaos session (checkpoints land at PATH.ckpt); recover replays it")
	checkpointEvery := fs.Int("checkpoint-every", 0, "write a checkpoint every N journaled rounds (0 = journal only)")
	universe := fs.String("universe", "default", "model-checker universe: tiny (2 nodes, 2 jobs), default (3 nodes, 3 jobs), or 2shard (default federated into two shards)")
	depth := fs.Int("depth", 8, "model-checker interleaving depth bound")
	states := fs.Int("states", 200000, "model-checker distinct-state bound")
	mutation := fs.String("mutation", "none", "model-checker seeded bug: none, double-refund, resurrect, blind-apply, lossy-crash (the sweep must catch it)")
	cexPath := fs.String("cex", "", "write the model-checker counterexample script to this file")
	liveness := fs.Bool("liveness", true, "model-checker: drain sampled leaf states to check every job terminates")
	metricsPath := fs.String("metrics", "", "write a metrics snapshot after the subcommand (\"-\" = stdout, .json = JSON encoding)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the subcommand runs")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	// Flag parsing stops at the first non-flag argument; a leftover would
	// otherwise hide every flag after it.
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q (flags go after the subcommand, and no subcommand takes positional arguments)", cmd, fs.Arg(0))
	}
	if err := checkFlags(cmd, fs); err != nil {
		return err
	}
	if *series < 0 {
		return fmt.Errorf("-series %d: must not be negative", *series)
	}
	if *checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d: must not be negative", *checkpointEvery)
	}
	if *checkpointEvery > 0 && *journal == "" {
		return fmt.Errorf("-checkpoint-every %d: checkpoints need a journal (-journal PATH)", *checkpointEvery)
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			return err
		}
	}
	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.New()
	}
	cfg := experiments.PaperStudyConfig(*seed, *iterations)
	cfg.SeriesLength = *series
	cfg.Metrics = reg

	if cmd == "mc" {
		// A sweep that finds a counterexample fails the command — the outcome
		// a seeded mutation expects — and still leaves its snapshot.
		err := runMC(*universe, *depth, *states, *mutation, *cexPath, *liveness, reg)
		if reg != nil {
			err = errors.Join(err, writeMetrics(reg, *metricsPath))
		}
		return err
	}
	if err := dispatch(cmd, cfg, *seed, *iterations, *file, *faults, *journal, *checkpointEvery, *shards, reg); err != nil {
		return err
	}
	if reg != nil {
		return writeMetrics(reg, *metricsPath)
	}
	return nil
}

// dispatch runs one subcommand; the caller dumps the metrics snapshot (if
// requested) after it returns, so every subcommand gets -metrics for free.
func dispatch(cmd string, cfg experiments.StudyConfig, seed uint64, iterations int, file, faults, journal string, checkpointEvery, shards int, reg *metrics.Registry) error {
	switch cmd {
	case "example":
		return runExample()
	case "fig4":
		return runStudy(experiments.TimeMin, cfg,
			"Fig. 4 — job batch execution time minimization (min T(s̄) s.t. C(s̄) ≤ B*)")
	case "fig6":
		return runStudy(experiments.CostMin, cfg,
			"Fig. 6 — job batch execution cost minimization (min C(s̄) s.t. T(s̄) ≤ T*)")
	case "fig5":
		res, err := experiments.RunStudy(experiments.TimeMin, cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 5 — average job execution time per experiment (time minimization)")
		fmt.Print(experiments.RenderSeries(res))
		return nil
	case "rho":
		points, err := experiments.RhoSweep(cfg, []float64{0.6, 0.7, 0.8, 0.9, 1.0})
		if err != nil {
			return err
		}
		fmt.Println("Section 6 — budget factor sweep (S = ρ·C·t·N)")
		fmt.Print(experiments.RenderRhoSweep(points))
		return nil
	case "passes":
		points, err := experiments.PassesAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — multi-pass alternative search vs first-window-only")
		for _, p := range points {
			fmt.Printf("%-10s kept=%5d ALP time=%7.2f AMP time=%7.2f ALP cost=%8.2f AMP cost=%8.2f\n",
				p.Label, p.Kept, p.ALPTime, p.AMPTime, p.ALPCost, p.AMPCost)
		}
		return nil
	case "policy":
		points, err := experiments.PolicyAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — AMP window policy (cheapest-N is the paper's step 2°)")
		for _, p := range points {
			fmt.Printf("%-12v kept=%5d time=%7.2f cost=%8.2f alt/job=%6.2f\n",
				p.Policy, p.Kept, p.JobTime, p.JobCost, p.AltsPerJob)
		}
		return nil
	case "robustness":
		alp, amp, err := strategy.RobustnessStudy(strategy.RobustnessConfig{Seed: seed, Iterations: iterations})
		if err != nil {
			return err
		}
		fmt.Println("Extension — failure-injected strategy execution (Section 7 future work, refs [13, 14])")
		fmt.Print(strategy.RenderRobustness(alp, amp))
		return nil
	case "scaling":
		points, err := experiments.ScalingStudy(seed, []int{500, 1000, 2000, 4000, 8000, 16000})
		if err != nil {
			return err
		}
		fmt.Println("Section 3 — operation counts vs slot-list length m")
		fmt.Print(experiments.RenderScaling(points))
		return nil
	case "clustered":
		points, err := experiments.ClusteredAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — statistical vs domain-structured slot lists")
		fmt.Print(experiments.RenderClustered(points))
		return nil
	case "baseline":
		if iterations < 50 {
			return fmt.Errorf("-iterations %d: baseline needs at least 50 (one trial per 50)", iterations)
		}
		bf, eco, err := experiments.BaselineStudy(experiments.BaselineConfig{Seed: seed, Trials: iterations / 50})
		if err != nil {
			return err
		}
		fmt.Println("Baseline — EASY backfilling vs the economic scheme on a homogeneous cluster")
		fmt.Print(experiments.RenderBaseline(bf, eco))
		return nil
	case "dynamics":
		if iterations < 40 {
			return fmt.Errorf("-iterations %d: dynamics needs at least 40 (one session per 40)", iterations)
		}
		alp, amp, err := experiments.DynamicsStudy(experiments.DynamicsConfig{Seed: seed, Sessions: iterations / 40})
		if err != nil {
			return err
		}
		fmt.Println("Extension — failure-injected metascheduler sessions (re-queue + re-schedule)")
		fmt.Print(experiments.RenderDynamics(alp, amp))
		return nil
	case "export":
		return runExport(seed, file)
	case "replay":
		return runReplay(file)
	case "pareto":
		return runPareto(seed)
	case "gridsim":
		return runGridsim(seed, shards, reg)
	case "chaos":
		return runChaos(seed, faults, journal, checkpointEvery, shards, reg)
	case "recover":
		return runRecover(seed, journal, checkpointEvery, shards, reg)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func runExample() error {
	res, err := experiments.RunSection4()
	if err != nil {
		return err
	}
	grid, _, err := experiments.Section4Environment()
	if err != nil {
		return err
	}
	fmt.Println("Section 4 — AMP search example")
	fmt.Print(experiments.RenderSection4(res, grid))
	return nil
}

func runStudy(obj experiments.Objective, cfg experiments.StudyConfig, title string) error {
	res, err := experiments.RunStudy(obj, cfg)
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Print(experiments.RenderStudy(res))
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `ecosched — slot selection and co-allocation for economic scheduling

subcommands:
  example   Section 4 worked example (Figs. 2-3)
  fig4      time-minimization study (Fig. 4a/4b + alternative counts)
  fig5      per-experiment series, time minimization (Fig. 5)
  fig6      cost-minimization study (Fig. 6a/6b + alternative counts)
  rho       Section 6 budget-factor sweep (S = rho*C*t*N)
  passes    multi-pass search ablation
  policy    AMP window-policy ablation
  robustness failure-injected strategy execution (Section 7 extension)
  scaling   operation-count scaling: ALP/AMP vs backfill baseline
  pareto    criteria-vector frontier for one iteration (Section 2)
  clustered statistical vs domain-structured slot lists
  baseline  EASY backfilling vs AMP+min-time on a homogeneous cluster
  dynamics  failure-injected metascheduler sessions (recovery study)
  export    write one generated scenario as JSON (-file out.json)
  replay    rerun the two-phase scheme on an exported scenario (-file in.json)
  gridsim   multi-iteration metascheduler demo on the grid simulator
  chaos     fault-injected session with retry/backoff and invariant audit
  recover   rebuild a crashed chaos session from its journal (-journal PATH)
  mc        bounded exhaustive model checker for the schedule/commit protocol

flags (a flag the subcommand does not read is an error, exit 2):
                        -seed N -iterations N -series N (fig5) -file PATH (export, replay)
                        -shards K     (federate the grid into K sharded domains; identical results)
                        -metrics PATH (snapshot after the run; "-" = stdout, .json = JSON)
                        -pprof ADDR   (serve net/http/pprof while running)
                        -faults PLAN  (chaos fault plan, e.g. "fail@300:cpu3;recover@600:cpu3")
                        -journal PATH (write-ahead journal for chaos; recover replays it)
                        -checkpoint-every N (checkpoint cadence in rounds, needs -journal; 0 = journal only)
mc flags:               -universe tiny|default|2shard -depth N -states N -liveness
                        -mutation none|double-refund|resurrect|blind-apply|lossy-crash -cex PATH
`)
}
