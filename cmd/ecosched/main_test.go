package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSubcommandsRun drives every subcommand end to end at a tiny iteration
// budget — the CLI-level integration suite. Output goes to stdout; the test
// only asserts clean exits.
func TestSubcommandsRun(t *testing.T) {
	// Silence the subcommands' stdout to keep test logs readable.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	cases := [][]string{
		{"example"},
		{"fig4", "-iterations", "40"},
		{"fig5", "-iterations", "40", "-series", "10"},
		{"fig6", "-iterations", "40"},
		{"rho", "-iterations", "20"},
		{"grid", "-iterations", "20"},
		{"passes", "-iterations", "20"},
		{"policy", "-iterations", "20"},
		{"clustered", "-iterations", "20"},
		{"baseline", "-iterations", "200"},
		{"fairness", "-iterations", "20"},
		{"robustness", "-iterations", "10"},
		{"dynamics", "-iterations", "120"},
		{"scaling"},
		{"pareto"},
		{"gridsim"},
		{"gridsim", "-shards", "3"},
		{"chaos"},
		{"chaos", "-faults", "fail@300:cpu3;recover@600:cpu3;revoke@450:cpu5:500-700"},
		{"chaos", "-shards", "2"},
		{"mc", "-universe", "2shard", "-depth", "4", "-states", "2000"},
		{"help"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestMetricsFlagWritesSnapshot drives -metrics end to end: a text dump, a
// JSON dump, and determinism across two identical runs.
func TestMetricsFlagWritesSnapshot(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	dir := t.TempDir()
	txt := filepath.Join(dir, "m.txt")
	if err := run([]string{"gridsim", "-metrics", txt}); err != nil {
		t.Fatalf("gridsim -metrics: %v", err)
	}
	data, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"counter metasched/iterations_total", "histogram metasched/batch_jobs", "counter gridsim/commits_total"} {
		if !strings.Contains(string(data), frag) {
			t.Errorf("snapshot missing %q:\n%s", frag, data)
		}
	}

	txt2 := filepath.Join(dir, "m2.txt")
	if err := run([]string{"gridsim", "-metrics", txt2}); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(txt2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("identical runs wrote different snapshots\n--- first ---\n%s\n--- second ---\n%s", data, data2)
	}

	sharded := filepath.Join(dir, "sharded.txt")
	if err := run([]string{"gridsim", "-shards", "2", "-metrics", sharded}); err != nil {
		t.Fatalf("gridsim -shards 2 -metrics: %v", err)
	}
	sdata, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"shard/count", "shard/scan_critical_path_total", "gridsim/store/shard0/rebuilds_total"} {
		if !strings.Contains(string(sdata), frag) {
			t.Errorf("sharded snapshot missing %q:\n%s", frag, sdata)
		}
	}

	jsonPath := filepath.Join(dir, "m.json")
	if err := run([]string{"fig4", "-iterations", "40", "-metrics", jsonPath}); err != nil {
		t.Fatalf("fig4 -metrics: %v", err)
	}
	jdata, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"experiments/kept_total"`, `"alloc/AMP/windows_found_total"`} {
		if !strings.Contains(string(jdata), frag) {
			t.Errorf("JSON snapshot missing %q", frag)
		}
	}
}

// TestChaosJournalRecover drives the durability flags end to end: a journaled
// chaos session, a recover that must reproduce it, and a second
// recover that must print the identical canonical state hash — the CLI-level
// version of the byte-identical recovery proof.
func TestChaosJournalRecover(t *testing.T) {
	old := os.Stdout
	defer func() { os.Stdout = old }()

	dir := t.TempDir()
	journal := filepath.Join(dir, "chaos.journal")
	capture := func(args []string) string {
		t.Helper()
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run(args)
		w.Close()
		os.Stdout = old
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if runErr != nil {
			t.Fatalf("%v: %v\n%s", args, runErr, data)
		}
		return string(data)
	}

	out := capture([]string{"chaos", "-journal", journal, "-checkpoint-every", "2", "-seed", "7"})
	if !strings.Contains(out, "journal: "+journal) {
		t.Fatalf("chaos output missing journal summary:\n%s", out)
	}
	if _, err := os.Stat(journal + ".ckpt"); err != nil {
		t.Fatalf("checkpoint cadence wrote no checkpoint: %v", err)
	}

	rec1 := capture([]string{"recover", "-journal", journal, "-seed", "7"})
	for _, frag := range []string{"checkpoint + journal suffix", "audit clean", "state hash: "} {
		if !strings.Contains(rec1, frag) {
			t.Fatalf("recover output missing %q:\n%s", frag, rec1)
		}
	}
	rec2 := capture([]string{"recover", "-journal", journal, "-seed", "7"})
	if rec1 != rec2 {
		t.Fatalf("two recoveries of the same journal diverged\n--- first ---\n%s\n--- second ---\n%s", rec1, rec2)
	}

	// The flags guard their prerequisites.
	if err := run([]string{"chaos", "-journal", journal}); err == nil {
		t.Error("chaos -journal over a journal that already holds history accepted")
	}
	if err := run([]string{"recover"}); err == nil {
		t.Error("recover without -journal accepted")
	}
	if err := run([]string{"recover", "-journal", filepath.Join(dir, "missing.journal")}); err == nil {
		t.Error("recover of a missing journal accepted")
	}
}

func TestExportReplayRoundTrip(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := run([]string{"export", "-file", path, "-seed", "5"}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("export wrote nothing: %v", err)
	}
	if err := run([]string{"replay", "-file", path}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestErrorPaths(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"unknown-cmd"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"replay"}); err == nil {
		t.Error("replay without a file accepted")
	}
	if err := run([]string{"replay", "-file", "/nonexistent/x.json"}); err == nil {
		t.Error("replay of a missing file accepted")
	}
	if err := run([]string{"fig4", "-iterations", "0"}); err == nil {
		t.Error("zero iterations accepted")
	}
	if err := run([]string{"chaos", "-faults", "melt@300:cpu1"}); err == nil {
		t.Error("malformed fault plan accepted")
	}
}
