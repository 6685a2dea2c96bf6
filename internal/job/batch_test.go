package job

import (
	"strings"
	"testing"
)

func mkJob(name string, prio int) *Job {
	return &Job{Name: name, Priority: prio, Request: ResourceRequest{
		Nodes: 2, Time: 50, MinPerformance: 1, MaxPrice: 3,
	}}
}

func TestNewBatchSortsByPriority(t *testing.T) {
	b, err := NewBatch([]*Job{mkJob("c", 3), mkJob("a", 1), mkJob("b", 2)})
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len: got %d", b.Len())
	}
	want := []string{"a", "b", "c"}
	for i, name := range want {
		if b.At(i).Name != name {
			t.Errorf("position %d: got %s, want %s", i, b.At(i).Name, name)
		}
	}
}

func TestNewBatchStableOnTies(t *testing.T) {
	b := MustNewBatch([]*Job{mkJob("first", 1), mkJob("second", 1), mkJob("third", 1)})
	want := []string{"first", "second", "third"}
	for i, name := range want {
		if b.At(i).Name != name {
			t.Errorf("tie order broken at %d: got %s", i, b.At(i).Name)
		}
	}
}

func TestNewBatchRejectsDuplicatesAndInvalid(t *testing.T) {
	if _, err := NewBatch([]*Job{mkJob("a", 1), mkJob("a", 2)}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewBatch([]*Job{{Name: "bad"}}); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestMustNewBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewBatch should panic on invalid input")
		}
	}()
	MustNewBatch([]*Job{{Name: "bad"}})
}

func TestBatchByName(t *testing.T) {
	b := MustNewBatch([]*Job{mkJob("a", 1), mkJob("b", 2)})
	if b.ByName("b") == nil || b.ByName("zz") != nil {
		t.Error("ByName lookup wrong")
	}
}

func TestBatchJobsAndString(t *testing.T) {
	b := MustNewBatch([]*Job{mkJob("a", 1)})
	if len(b.Jobs()) != 1 {
		t.Error("Jobs accessor wrong")
	}
	if !strings.Contains(b.String(), "a") {
		t.Errorf("String: got %q", b.String())
	}
}

func TestEmptyBatch(t *testing.T) {
	b, err := NewBatch(nil)
	if err != nil {
		t.Fatalf("empty batch should construct: %v", err)
	}
	if b.Len() != 0 || len(b.Jobs()) != 0 {
		t.Error("empty batch should hold no jobs")
	}
}
