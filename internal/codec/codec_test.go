package codec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"ecosched/internal/alloc"
	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// handScenario builds a small scenario exercising every wire field.
func handScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	pool, err := resource.NewPool([]*resource.Node{
		{Name: "a", Performance: 1.5, Price: 2.25, Domain: "west",
			Attrs: resource.Attributes{RAMMB: 4096, DiskGB: 50, OS: "linux", Tags: []string{"gpu"}}},
		{Name: "b", Performance: 2.5, Price: 4.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := []slot.Slot{
		slot.New(pool.Node(0), 10, 210),
		slot.New(pool.Node(1), 0, 300),
	}
	batch, err := job.NewBatch([]*job.Job{
		{Name: "j1", Priority: 1, Request: job.ResourceRequest{
			Nodes: 1, Time: 80, MinPerformance: 1, MaxPrice: 5, BudgetFactor: 0.8,
			Needs: resource.Requirements{MinRAMMB: 2048, OS: "linux", Tags: []string{"gpu"}}}},
		{Name: "j2", Priority: 2, Request: job.ResourceRequest{
			Nodes: 2, Time: 50, MinPerformance: 1, MaxPrice: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &workload.Scenario{Pool: pool, Slots: slot.NewList(slots), Batch: batch}
}

func TestRoundTripHandScenario(t *testing.T) {
	sc := handScenario(t)
	var buf bytes.Buffer
	if err := EncodeScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pool.Size() != 2 || got.Slots.Len() != 2 || got.Batch.Len() != 2 {
		t.Fatalf("shape changed: %d nodes, %d slots, %d jobs",
			got.Pool.Size(), got.Slots.Len(), got.Batch.Len())
	}
	n := got.Pool.ByName("a")
	if n == nil || n.Attrs.RAMMB != 4096 || !n.Attrs.HasTag("gpu") || n.Domain != "west" {
		t.Errorf("node attributes lost: %+v", n)
	}
	j := got.Batch.ByName("j1")
	if j == nil || j.Request.BudgetFactor != 0.8 || j.Request.Needs.OS != "linux" {
		t.Errorf("job requirements lost: %+v", j)
	}
	for i := 0; i < 2; i++ {
		a, b := sc.Slots.At(i), got.Slots.At(i)
		if a.Span != b.Span || a.Price != b.Price || a.Node.Label() != b.Node.Label() {
			t.Errorf("slot %d changed: %v vs %v", i, a, b)
		}
	}
}

// TestRoundTripPreservesSchedulingBehaviour: the decoded scenario schedules
// identically to the original — the property users of exported scenarios
// rely on.
func TestRoundTripPreservesSchedulingBehaviour(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		slotGen := workload.PaperSlotGenerator()
		slotGen.CountMin, slotGen.CountMax = 30, 40
		sc, err := workload.GenerateScenario(slotGen, workload.PaperJobGenerator(), rng)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := EncodeScenario(&buf, sc); err != nil {
			return false
		}
		got, err := DecodeScenario(&buf)
		if err != nil {
			return false
		}
		run := func(s *workload.Scenario) string {
			res, err := alloc.FindAlternatives(alloc.AMP{}, s.Slots, s.Batch, alloc.SearchOptions{})
			if err != nil {
				return "err"
			}
			out := ""
			for _, j := range s.Batch.Jobs() {
				for _, w := range res.Alternatives[j.Name] {
					out += w.String() + ";"
				}
			}
			return out
		}
		return run(sc) == run(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsIncomplete(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeScenario(&buf, nil); err == nil {
		t.Error("nil scenario accepted")
	}
	if err := EncodeScenario(&buf, &workload.Scenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
}

func TestDecodeRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", "not json"},
		{"wrong version", `{"version": 99, "nodes": [], "slots": [], "jobs": []}`},
		{"unknown field", `{"version": 1, "nodes": [], "slots": [], "jobs": [], "extra": 1}`},
		{"bad node", `{"version": 1, "nodes": [{"name": "x", "performance": -1, "price": 1}], "slots": [], "jobs": []}`},
		{"slot unknown node", `{"version": 1, "nodes": [], "slots": [{"node": 3, "price": 1, "start": 0, "end": 10}], "jobs": []}`},
		{"duplicate node name", `{"version": 1, "nodes": [{"name": "x", "performance": 1, "price": 1}, {"name": "x", "performance": 2, "price": 1}], "slots": [], "jobs": []}`},
		{"bad slot span", `{"version": 1, "nodes": [{"name": "x", "performance": 1, "price": 1}], "slots": [{"node": 0, "price": 1, "start": 10, "end": 0}], "jobs": []}`},
		{"slots overlapping on one node", `{"version": 1, "nodes": [{"name": "x", "performance": 1, "price": 1}], "slots": [{"node": 0, "price": 1, "start": 0, "end": 10}, {"node": 0, "price": 1, "start": 9, "end": 20}], "jobs": []}`},
		{"bad job", `{"version": 1, "nodes": [], "slots": [], "jobs": [{"name": "j", "priority": 1, "nodes": 0, "time": 10, "min_performance": 1, "max_price": 1}]}`},
		{"duplicate jobs", `{"version": 1, "nodes": [], "slots": [], "jobs": [
			{"name": "j", "priority": 1, "nodes": 1, "time": 10, "min_performance": 1, "max_price": 1},
			{"name": "j", "priority": 2, "nodes": 1, "time": 10, "min_performance": 1, "max_price": 1}]}`},
	}
	for _, c := range cases {
		if _, err := DecodeScenario(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestDecodeRejectsOverlappingSlots pins the decoder's disjointness check:
// every layer above assumes a node's vacant slots never overlap, so an
// exported scenario with every slot listed twice must fail at decode, with a
// codec error, and not later inside the window search. Slots that only touch
// stay legal.
func TestDecodeRejectsOverlappingSlots(t *testing.T) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	slots := doc["slots"].([]any)
	doc["slots"] = append(slots, slots...)
	doubled, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeScenario(bytes.NewReader(doubled))
	if err == nil || !strings.HasPrefix(err.Error(), "codec: ") || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("duplicated slots: got %v, want a codec overlap error", err)
	}

	touching := `{"version": 1, "nodes": [{"name": "x", "performance": 1, "price": 1}], "jobs": [],
		"slots": [{"node": 0, "price": 1, "start": 0, "end": 10}, {"node": 0, "price": 1, "start": 10, "end": 20}]}`
	if _, err := DecodeScenario(strings.NewReader(touching)); err != nil {
		t.Errorf("touching slots rejected: %v", err)
	}
}

func TestDecodeEmptyScenarioIsValid(t *testing.T) {
	doc := `{"version": 1, "nodes": [], "slots": [], "jobs": []}`
	sc, err := DecodeScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Pool.Size() != 0 || sc.Slots.Len() != 0 || sc.Batch.Len() != 0 {
		t.Error("empty document should decode to an empty scenario")
	}
}
