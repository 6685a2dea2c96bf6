package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(a, b string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{a, b} {
		f, err := loadResult(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	if !compareResults(files[0], files[1], stdout) {
		return 1
	}
	return 0
}

// compareResults judges B against baseline A on every end-to-end metric of
// every workload both hold, and reports whether B passes. An exact metric
// must be equal. A wall metric regresses when B's value is worse than A's by
// more than the metric's bound; when either side's run-to-run spread is wider
// than the bound the pair is unresolved, not unchanged — unless every run of
// B beats every run of A.
func compareResults(a, b *resultFile, out io.Writer) bool {
	pass := true
	fmt.Fprintf(out, "%-14s %-22s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "A", "B", "worse", "spreadA", "spreadB", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		if wa.Seed != wb.Seed {
			fmt.Fprintf(out, "%-14s seeds differ (%d vs %d): exact metrics are not comparable\n", wa.Name, wa.Seed, wb.Seed)
			pass = false
			continue
		}
		for _, d := range endToEndDefs {
			va, oka := wa.EndToEnd[d.name]
			vb, okb := wb.EndToEnd[d.name]
			if !oka || !okb {
				continue
			}
			worse := ratio(vb.Value-va.Value, va.Value)
			if d.higher && worse != 0 {
				worse = -worse
			}
			sa, sb := spread(va.Runs), spread(vb.Runs)
			verdict := "ok"
			switch {
			case d.exact && va.Value != vb.Value:
				verdict, pass = "MISMATCH", false
			case d.exact:
				verdict = "same"
			case worse > d.bound:
				verdict, pass = "REGRESSION", false
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved"
				if allBetter(vb.Runs, va.Runs, d.higher) {
					verdict = "improved"
				}
			}
			fmt.Fprintf(out, "%-14s %-22s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wa.Name, d.name, va.Value, vb.Value, 100*worse, 100*sa, 100*sb, verdict)
		}
	}
	return pass
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(b, a []float64, higher bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if higher {
		return percentile(b, 0) > percentile(a, 1)
	}
	return percentile(b, 1) < percentile(a, 0)
}

// selfCheck runs the untraced set twice on the same commit and compares the
// two: the A/A spreads it prints are what the wall bounds are sized against.
func selfCheck(specs []spec, opt options, stdout, stderr io.Writer) int {
	opt.traced, opt.untraced = false, true
	var files [2]*resultFile
	for i := range files {
		f, err := runSet(specs, opt, io.Discard)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !f.correct() {
			fmt.Fprintln(stderr, "bench: selfcheck run failed its gates")
			return 1
		}
		files[i] = f
		if err := writeJSON(fmt.Sprintf("%s/selfcheck-%c.json", opt.outDir, 'A'+i), f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !compareResults(files[0], files[1], stdout) {
		fmt.Fprintln(stdout, "selfcheck: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: ok")
	return 0
}
