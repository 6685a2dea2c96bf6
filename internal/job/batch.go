package job

import (
	"fmt"
	"sort"
	"strings"
)

// Batch is the ordered set J = {j1, ..., jn} scheduled together in one
// iteration. Order is by priority (ties broken by insertion order), which is
// the order the alternative search visits jobs.
type Batch struct {
	jobs []*Job
}

// NewBatch builds a batch, validating every job and sorting by priority.
// Job names must be unique within a batch.
func NewBatch(jobs []*Job) (*Batch, error) {
	seen := map[string]bool{}
	b := &Batch{jobs: make([]*Job, 0, len(jobs))}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("job: duplicate job name %q in batch", j.Name)
		}
		seen[j.Name] = true
		b.jobs = append(b.jobs, j)
	}
	sort.SliceStable(b.jobs, func(i, k int) bool { return b.jobs[i].Priority < b.jobs[k].Priority })
	return b, nil
}

// MustNewBatch is NewBatch that panics on error; for tests and examples.
func MustNewBatch(jobs []*Job) *Batch {
	b, err := NewBatch(jobs)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of jobs.
func (b *Batch) Len() int { return len(b.jobs) }

// At returns the i-th job in priority order.
func (b *Batch) At(i int) *Job { return b.jobs[i] }

// Jobs returns the jobs in priority order; callers must not mutate the slice.
func (b *Batch) Jobs() []*Job { return b.jobs }

// ByName returns the named job, or nil.
func (b *Batch) ByName(name string) *Job {
	for _, j := range b.jobs {
		if j.Name == name {
			return j
		}
	}
	return nil
}

// String lists the batch's jobs.
func (b *Batch) String() string {
	parts := make([]string, len(b.jobs))
	for i, j := range b.jobs {
		parts[i] = j.String()
	}
	return "Batch{" + strings.Join(parts, "; ") + "}"
}
