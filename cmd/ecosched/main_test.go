package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
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
		{"passes", "-iterations", "20"},
		{"policy", "-iterations", "20"},
		{"clustered", "-iterations", "20"},
		{"baseline", "-iterations", "200"},
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

// TestMCMetricsSnapshot pins -metrics on the model checker: a clean sweep
// writes its counts, and a sweep that fails the command — here the
// counterexample a seeded mutation must produce — still writes its snapshot.
func TestMCMetricsSnapshot(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	dir := t.TempDir()
	for _, tc := range []struct {
		args    []string
		fails   bool
		entries []string
	}{
		{[]string{"mc", "-universe", "tiny", "-states", "10"}, false,
			[]string{"gauge mc/states 10\n", "gauge mc/truncated 1\n", "gauge mc/counterexamples 0\n"}},
		{[]string{"mc", "-universe", "tiny", "-depth", "4", "-states", "2000", "-mutation", "double-refund"}, true,
			[]string{"gauge mc/counterexamples 1\n", "gauge mc/truncated 0\n"}},
	} {
		path := filepath.Join(dir, "mc.txt")
		os.Remove(path)
		err := run(append(tc.args, "-metrics", path))
		if (err != nil) != tc.fails {
			t.Fatalf("%v: error %v, want failure %t", tc.args, err, tc.fails)
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("%v: no snapshot written: %v", tc.args, rerr)
		}
		for _, e := range tc.entries {
			if !strings.Contains(string(data), e) {
				t.Errorf("%v: snapshot missing %q:\n%s", tc.args, e, data)
			}
		}
	}
}

// capture runs the CLI with args and returns what it wrote to stdout; a run
// error fails the test.
func capture(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = old
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("%v: %v\n%s", args, runErr, data)
	}
	return string(data)
}

// TestCLIOutputDigests pins the stdout of deterministic runs by sha256, so a
// change that claims byte-identical CLI output is checked by go test rather
// than by hand. A change that alters one of these outputs on purpose updates
// its digest and says why.
func TestCLIOutputDigests(t *testing.T) {
	cases := []struct {
		args   []string
		sha256 string
	}{
		{[]string{"example"}, "5b0c2dcc7f1a4407b9bee3026caaff4f3ae22f14391328e620d853afb19a0613"},
		{[]string{"gridsim"}, "268392a3dd4a0266fd8bd357c06d6442707391374ffb5a38596141d09b6e60e2"},
		{[]string{"scaling"}, "d96c7a55369adf85371042a3d84c40fb69069f0b14c6e1424df947b19a7bf613"},
		{[]string{"chaos"}, "7608a0904eb66b1fb15048c769b6023bd2746dccc0bcba2c6602c39ddef0d0d4"},
		{[]string{"chaos", "-seed", "7", "-shards", "4"}, "a42e5e208c2428d0389d8b0d9c7498468acda26041ff8e26d870d3d6dcbef88b"},
		{[]string{"fig4", "-iterations", "50"}, "2ef7ec2ae66758ca4dcea16013cb1ecc40b0b880447c26fe6b2023a554984bfb"},
		{[]string{"fig5", "-iterations", "50"}, "00406b4f40bdea57bb3e2a4f0f8121580d575ad1060f41acb86cd265d0f574b1"},
		{[]string{"fig6", "-iterations", "50"}, "bf7ab3abbc7150d057b0fb7f84f3c0d0356d419c1c276083b06994fe07edd9b0"},
		{[]string{"rho", "-iterations", "50"}, "b57a913b3e85c848f098d6297070fabb25de9f9c85148ddeef849b3b0e5df518"},
		{[]string{"passes", "-iterations", "50"}, "163b0dfbc7c141f6aab547ff27c015bc091e1655edaf7c02da42ed4da866473b"},
		{[]string{"policy", "-iterations", "50"}, "47ab63e4f1b3fa58ee200477698b73ce077194d0a3376ea1b12ce73da4ab5443"},
		{[]string{"robustness", "-iterations", "50"}, "84c7c6094e13c4e295b796baacdbb448cd0e69e4e8ea5011c09689bb006df988"},
		{[]string{"clustered", "-iterations", "50"}, "517a25ba675328af1b429597519b4fb7f044110d5c245cb50e089e35d34a7982"},
		{[]string{"baseline", "-iterations", "200"}, "76fc10f8d349c4a4089c806788f76541c4add976bb1f1e9bbf3018efff2cc6da"},
		{[]string{"dynamics", "-iterations", "200"}, "405140d9dccaf1c5046f1240c4d956a21b9949aa8c136f986dd72d400e518bfe"},
		{[]string{"pareto"}, "36a2fced50e3c4e1ae5b5615d4f95d3fea97b9ebef12c23941fe61f947fe9ebc"},
		{[]string{"mc", "-universe", "tiny", "-depth", "4", "-states", "2000"}, "68aeb380f1b4735bdb9aa5cce7169253714222869ed4643131ce78b7bfe68aa1"},
		// Metrics snapshots, appended to stdout by -metrics -.
		{[]string{"gridsim", "-metrics", "-"}, "7ab82480ce97fea90737aba62dc3967565c0d4402e48d7f9db0c7ad0510ddf57"},
		{[]string{"gridsim", "-shards", "3", "-metrics", "-"}, "ed08c6317da8da5d2825aac4b3425240d7639313b10a46c71b38514167e9deed"},
		{[]string{"fig4", "-iterations", "50", "-metrics", "-"}, "34216314d55493686f5d7e93afecc7ee5f5f6d164aa1ebd866017adc1225dd7a"},
		{[]string{"mc", "-universe", "tiny", "-depth", "4", "-states", "2000", "-metrics", "-"}, "1f899ce081a9f22cf03dab198a0702a3b4ad5eb1e147da29dad34e6d196a07d0"},
	}
	for _, tc := range cases {
		out := capture(t, tc.args)
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%v: stdout sha256 %s, want %s; output:\n%s", tc.args, got, tc.sha256, out)
		}
	}

	// The snapshot file of a journaled chaos run, the only run that reaches
	// metasched/durable/*. Its bytes do not depend on the paths.
	dir := t.TempDir()
	snapshot := filepath.Join(dir, "metrics.txt")
	capture(t, []string{"chaos", "-seed", "7", "-journal", filepath.Join(dir, "J"), "-checkpoint-every", "2", "-metrics", snapshot})
	data, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if sum, want := sha256.Sum256(data), "20e3ed2a3bfc757c918cc6dd185861d39eb9e2a5726c569350acbe88fc30f456"; hex.EncodeToString(sum[:]) != want {
		t.Errorf("durable chaos metrics snapshot: sha256 %x, want %s; snapshot:\n%s", sum, want, data)
	}
}

// TestChaosJournalRecover drives the durability flags end to end: a journaled
// chaos session, a recover that must reproduce it, and a second
// recover that must print the identical canonical state hash — the CLI-level
// version of the byte-identical recovery proof.
func TestChaosJournalRecover(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "chaos.journal")
	out := capture(t, []string{"chaos", "-journal", journal, "-checkpoint-every", "2", "-seed", "7"})
	if !strings.Contains(out, "journal: "+journal) {
		t.Fatalf("chaos output missing journal summary:\n%s", out)
	}
	if _, err := os.Stat(journal + ".ckpt"); err != nil {
		t.Fatalf("checkpoint cadence wrote no checkpoint: %v", err)
	}

	rec1 := capture(t, []string{"recover", "-journal", journal, "-seed", "7"})
	for _, frag := range []string{"checkpoint + journal suffix", "audit clean", "state hash: "} {
		if !strings.Contains(rec1, frag) {
			t.Fatalf("recover output missing %q:\n%s", frag, rec1)
		}
	}
	rec2 := capture(t, []string{"recover", "-journal", journal, "-seed", "7"})
	if rec1 != rec2 {
		t.Fatalf("two recoveries of the same journal diverged\n--- first ---\n%s\n--- second ---\n%s", rec1, rec2)
	}

	// The bytes chaos wrote, and a full replay of them, are pinned: the
	// journal and checkpoint wire formats must not move, and replay must
	// rebuild the same state from every record.
	for path, want := range map[string]string{
		journal:           "2b6e339c835e38e06b9a602366e787e8b734159d50521a0c541b3f7c101d3d28",
		journal + ".ckpt": "25dfe42e44b21679c0f853bf196eedb32c24f8d08b007f452e3bf528b90753fc",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, want %s", filepath.Base(path), sum, want)
		}
	}
	if err := os.Remove(journal + ".ckpt"); err != nil {
		t.Fatal(err)
	}
	full := capture(t, []string{"recover", "-journal", journal, "-seed", "7"})
	for _, line := range []string{
		"full journal replay",
		"records: 27 scanned, 27 replayed (10 submits, 2 fails, 1 recovers, 2 revokes, 12 rounds)\n",
		"state hash: d69dd7af4fa38e3e\n",
	} {
		if !strings.Contains(full, line) {
			t.Errorf("full-replay recover output missing %q:\n%s", line, full)
		}
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

// TestMCVerdictIsBounded pins the model checker's verdict to what the sweep
// reached: a sweep the state bound cut short claims no exhaustiveness, and
// one that drained no leaf claims no liveness.
func TestMCVerdictIsBounded(t *testing.T) {
	out := capture(t, []string{"mc", "-universe", "tiny", "-states", "10"})
	want := "bounded sweep clean: safety, determinism hold up to the state bound of 10 states, not over every interleaving; liveness unprobed: no leaf drained\n"
	if !strings.HasSuffix(out, want) || strings.Contains(out, "all interleavings clean") {
		t.Fatalf("verdict of a truncated sweep overclaims:\n%s", out)
	}
}

// TestNegativeBoundsRejected checks that a negative bound fails where it
// enters instead of silently falling back to a default or exploring nothing.
func TestNegativeBoundsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"mc", "-universe", "tiny", "-depth", "-1"}, "negative bound"},
		{[]string{"mc", "-universe", "tiny", "-states", "-5"}, "negative bound"},
		{[]string{"chaos", "-checkpoint-every", "-2"}, "-checkpoint-every -2"},
		{[]string{"fig5", "-series", "-1"}, "-series -1"},
		{[]string{"dynamics", "-iterations", "-5"}, "-iterations -5: dynamics needs at least 40"},
		{[]string{"baseline", "-iterations", "49"}, "-iterations 49: baseline needs at least 50"},
	}
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	for _, tc := range cases {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	for _, cmd := range []string{"unknown-cmd", "fairness", "grid"} {
		if err := run([]string{cmd}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: got %v, want an unknown subcommand error", cmd, err)
		}
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
	// Input the CLI would otherwise ignore: flags after a positional
	// argument, and a checkpoint cadence with no journal to checkpoint.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fig4", "x", "-iterations", "0"}, `unexpected argument "x"`},
		{[]string{"mc", "x", "-universe", "nosuch"}, `unexpected argument "x"`},
		{[]string{"chaos", "-checkpoint-every", "3"}, "checkpoints need a journal"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestUnreadFlagsRejected walks every subcommand: each flag it does not read
// is rejected as a usage error (exit 2) naming the flag, before the
// subcommand runs, and each flag it does read, -metrics and -pprof included,
// passes the check.
func TestUnreadFlagsRejected(t *testing.T) {
	values := map[string]string{
		"seed": "1", "iterations": "50", "series": "10", "file": "x.json", "shards": "2",
		"faults": "fail@300:cpu3", "journal": "j", "checkpoint-every": "2", "universe": "tiny",
		"depth": "4", "states": "100", "mutation": "none", "cex": "c.txt", "liveness": "false",
		"metrics": "-", "pprof": "localhost:0",
	}
	for cmd, reads := range subcommandFlags {
		for name, value := range values {
			args := []string{cmd, "-" + name + "=" + value}
			read := name == "metrics" || name == "pprof" || slices.Contains(reads, name)
			fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
			for n := range values {
				fs.String(n, "", "")
			}
			if err := fs.Parse(args[1:]); err != nil {
				t.Fatal(err)
			}
			err := checkFlags(cmd, fs)
			if read {
				if err != nil {
					t.Errorf("%v: %v, want the flag accepted", args, err)
				}
				continue
			}
			var ue *usageError
			if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("%v: got %v, want a usage error naming -%s", args, err, name)
			}
			// The full command line fails the same way, before anything runs.
			if err := run(args); !errors.As(err, &ue) {
				t.Errorf("run %v: got %v, want a usage error", args, err)
			}
		}
	}
	// The 19 subcommands usage lists, plus help.
	if len(subcommandFlags) != 20 {
		t.Fatalf("subcommandFlags lists %d subcommands, want all 20", len(subcommandFlags))
	}
}
