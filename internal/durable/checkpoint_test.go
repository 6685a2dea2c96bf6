package durable_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/codec"
	"ecosched/internal/durable"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// wideService builds a durable service over the benchmark's wide shape at
// the given node count: owner-local load keeping about a hundred bookings
// live on each node over a 6000-tick horizon, and a first round that places
// a few VO jobs, so a checkpoint carries local and charged bookings alike.
func wideService(tb testing.TB, nodes int) *durable.Service {
	tb.Helper()
	list := make([]*resource.Node, nodes)
	for i := range list {
		list[i] = &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: 1 + float64(i%21)/10,
			Price:       sim.Money(1 + i%4),
			Domain:      fmt.Sprintf("d%d", i%3),
		}
	}
	grid, err := gridsim.New(resource.MustNewPool(list))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := metasched.Config{
		Algorithm: alloc.AMP{}, Policy: metasched.MinimizeTime,
		Horizon: 6000, Step: 150, MaxBatch: 8, MaxPostponements: 3,
		LocalArrivals: &metasched.LocalArrivals{
			Load: gridsim.LocalLoad{MeanGap: 30, DurMin: 20, DurMax: 40},
			RNG:  sim.NewRNG(1),
		},
	}
	cfg.Search.MaxAlternativesPerJob = 10
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	ds, err := durable.New(svc, durable.Options{
		JournalPath:    filepath.Join(dir, "w.journal"),
		CheckpointPath: filepath.Join(dir, "w.ckpt"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.Close() })
	for i := 0; i < 4; i++ {
		j := &job.Job{
			Name: fmt.Sprintf("j%d", i+1), Priority: i + 1,
			Request: job.ResourceRequest{Nodes: 1 + i%2, Time: 60, MinPerformance: 1, MaxPrice: 10},
		}
		if err := ds.Submit(j); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := ds.Tick(); err != nil {
		tb.Fatal(err)
	}
	if placed := ds.Scheduler().PlacedCount(); placed != 4 {
		tb.Fatalf("%d of 4 jobs placed", placed)
	}
	return ds
}

// TestWarmCheckpointAllocsIndependentOfNodes: once the kept buffer has grown
// to a checkpoint's size, a checkpoint allocates as often on 1000 nodes as
// on 100 — nothing per booking or per node.
func TestWarmCheckpointAllocsIndependentOfNodes(t *testing.T) {
	// As in codec's TestEncodeCheckpointAllocsIndependentOfTasks: GC off so
	// encoding/json's pool stays full, the least of several single runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(nodes int) float64 {
		ds := wideService(t, nodes)
		checkpoint := func() {
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		checkpoint()
		checkpoint()
		least := math.Inf(1)
		for i := 0; i < 8; i++ {
			least = math.Min(least, testing.AllocsPerRun(1, checkpoint))
		}
		return least
	}
	if small, large := allocs(100), allocs(1000); small != large {
		t.Fatalf("a warm Checkpoint allocates %v times at 100 nodes but %v at 1000", small, large)
	}
}

// TestCheckpointRecyclesSupersededFile: every publish leaves path.prev
// holding the superseded checkpoint in a file of its own, and from the third
// checkpoint on the published file is the one published two checkpoints
// before, overwritten in place.
func TestCheckpointRecyclesSupersededFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.ckpt")
	ds := miniSession(t, durable.Options{JournalPath: filepath.Join(dir, "r.journal"), CheckpointPath: path})
	defer ds.Close()
	var published []os.FileInfo
	for i := 0; i < 5; i++ {
		if i > 0 {
			if _, err := ds.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cur, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := os.Stat(path + ".prev")
		switch {
		case i == 0 && !os.IsNotExist(err):
			t.Fatalf("first checkpoint left %s.prev (%v)", path, err)
		case i == 0:
		case err != nil:
			t.Fatalf("checkpoint %d: %v", i+1, err)
		case os.SameFile(cur, prev):
			t.Fatalf("checkpoint %d: %s.prev is the published file", i+1, path)
		case !os.SameFile(prev, published[i-1]):
			t.Fatalf("checkpoint %d: %s.prev is not the checkpoint it superseded", i+1, path)
		}
		if i >= 2 && !os.SameFile(cur, published[i-2]) {
			t.Fatalf("checkpoint %d was written to a new file, not the one it superseded twice", i+1)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("checkpoint %d left the temp file behind (%v)", i+1, err)
		}
		published = append(published, cur)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.DecodeCheckpoint(data); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
	}
}

// TestCheckpointNeverWritesThroughStaleLink: a crash between linking path to
// path.prev and renaming the new file over path leaves both names on one
// file. The process that opens next must not overwrite it: the published
// bytes survive until a new file is renamed over them.
func TestCheckpointNeverWritesThroughStaleLink(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{
		JournalPath:     filepath.Join(dir, "c.journal"),
		CheckpointPath:  filepath.Join(dir, "c.ckpt"),
		CheckpointEvery: 2,
	}
	ds := miniSession(t, opts)
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// The crash: path.prev names the published file. keep names it too, so
	// its bytes stay readable after the rename.
	keep := filepath.Join(dir, "keep")
	for _, name := range []string{opts.CheckpointPath + ".prev", keep} {
		os.Remove(name)
		if err := os.Link(opts.CheckpointPath, name); err != nil {
			t.Skipf("no hard links here: %v", err)
		}
	}
	rds, rep, err := durable.Recover(opts, fuzzFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer rds.Close()
	if !rep.CheckpointUsed {
		t.Fatal("recovery ignored the checkpoint")
	}
	for i := 0; i < 3; i++ {
		if err := rds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(keep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d after recovery wrote through the stale link", i+1)
		}
		cur, err1 := os.Stat(opts.CheckpointPath)
		prev, err2 := os.Stat(opts.CheckpointPath + ".prev")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if os.SameFile(cur, prev) {
			t.Fatalf("checkpoint %d after recovery: path.prev is the published file", i+1)
		}
	}
}

// TestCheckpointRefusesNonFiniteFee: a booking whose fee JSON cannot carry
// fails the checkpoint with encoding/json's error and leaves the published
// checkpoint as it was; once the booking is gone checkpoints resume.
func TestCheckpointRefusesNonFiniteFee(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{
		JournalPath:    filepath.Join(dir, "n.journal"),
		CheckpointPath: filepath.Join(dir, "n.ckpt"),
	}
	ds := miniSession(t, opts)
	defer ds.Close()
	for i := 0; i < 2; i++ {
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	grid := ds.Scheduler().Grid()
	grid.ForceBook(gridsim.Task{Name: "nan", Node: 0, Span: sim.Interval{Start: 5000, End: 5010}, Cost: sim.Money(math.NaN())})
	var unsupported *json.UnsupportedValueError
	if err := ds.Checkpoint(); !errors.As(err, &unsupported) {
		t.Fatalf("Checkpoint with a NaN fee returned %v, want a json.UnsupportedValueError", err)
	}
	got, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a refused checkpoint changed the published one")
	}
	grid.CancelJob("nan")
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(opts.CheckpointPath); bytes.Equal(got, want) {
		t.Fatal("the checkpoint after the refused one did not publish")
	}
}

// BenchmarkCheckpoint times a warm checkpoint of the 1000-node wide shape:
// about a hundred thousand bookings streamed into the kept buffer and
// published over the superseded file.
func BenchmarkCheckpoint(b *testing.B) {
	ds := wideService(b, 1000)
	for i := 0; i < 2; i++ {
		if err := ds.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
