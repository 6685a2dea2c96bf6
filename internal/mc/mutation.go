package mc

import (
	"fmt"

	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
)

// Mutation seeds a deliberate protocol bug into the replay harness — never
// into the production packages — so the checker's ability to catch real
// violations is itself testable: explore with a mutation on and the sweep
// must end with a minimized counterexample instead of a clean pass.
type Mutation int

const (
	// MutNone runs the unmodified protocol.
	MutNone Mutation = iota
	// MutDoubleRefund refunds a node failure's cancellations twice: after
	// the scheduler handles the failure, the income the grid already
	// refunded is subtracted again, modelling a commit/cancel path that
	// forgets refunds are idempotent. Caught by the non-negative-income
	// invariant.
	MutDoubleRefund
	// MutResurrect re-books, on node recovery, every reservation the
	// node's failure had cancelled — the classic "node comes back and
	// replays its old ledger" bug. Caught by the resurrection and
	// event-adds-capacity invariants.
	MutResurrect
	// MutBlindApply makes the service applier skip re-validation: when the
	// pending plan is stale at StepApply, the plan's placements are written
	// to the grid as-is (bypassing every commit check) before the real apply
	// runs — the optimistic-concurrency bug the Plan epoch exists to
	// prevent. Caught by the double-booking, failed-node-reservation, and
	// vacant-store-coherence invariants.
	MutBlindApply
	// MutLossyCrash makes crash recovery silently drop the last entry of
	// the restored job queue — the lost-journal-record bug durability
	// exists to prevent. Caught by the crash action's hash-equality check.
	MutLossyCrash
)

var mutationNames = [...]string{"none", "double-refund", "resurrect", "blind-apply", "lossy-crash"}

// String names the mutation; also the CLI flag syntax.
func (m Mutation) String() string {
	if m < 0 || int(m) >= len(mutationNames) {
		return fmt.Sprintf("mutation(%d)", int(m))
	}
	return mutationNames[m]
}

// ParseMutation parses the CLI spelling of a mutation: String's inverse,
// plus "" for MutNone.
func ParseMutation(s string) (Mutation, error) {
	for m := MutNone; m <= MutLossyCrash; m++ {
		if s == m.String() || s == "" {
			return m, nil
		}
	}
	return MutNone, fmt.Errorf("mc: unknown mutation %q (want none, double-refund, resurrect, blind-apply, lossy-crash)", s)
}

// handlers returns what the instance injects events into: the service, or
// the service behind a decorator seeding MutDoubleRefund or MutResurrect.
// fault.Inject calls it between the auditor's BeginEvent and EndEvent, so
// the auditor sees the bug as the event's own effect.
func (m Mutation) handlers(svc *metasched.Service) fault.Driver {
	if m == MutDoubleRefund || m == MutResurrect {
		return &mutant{Service: svc, mut: m, zombies: map[string][]gridsim.Task{}}
	}
	return svc
}

// mutant decorates the service's failure and recovery handlers.
type mutant struct {
	*metasched.Service
	mut Mutation
	// zombies holds, per node label, the live VO reservations its last
	// failure cancelled; MutResurrect force-books them again on recovery.
	zombies map[string][]gridsim.Task
}

func (m *mutant) HandleNodeFailure(nodeLabel string) ([]string, error) {
	grid := m.Scheduler().Grid()
	node := grid.Pool().ByName(nodeLabel)
	m.zombies[nodeLabel] = nil
	for _, t := range grid.Tasks(node.ID) {
		if !t.Local && t.Span.End > grid.Now() {
			m.zombies[nodeLabel] = append(m.zombies[nodeLabel], t)
		}
	}
	before, _ := grid.OwnerIncome()
	requeued, err := m.Service.HandleNodeFailure(nodeLabel)
	if after, _ := grid.OwnerIncome(); err == nil && m.mut == MutDoubleRefund && before[node.Domain] > after[node.Domain] {
		// The grid already refunded the cancellations once; subtract the
		// same amount again.
		grid.AdjustIncome(node.Domain, after[node.Domain]-before[node.Domain])
	}
	return requeued, err
}

func (m *mutant) HandleNodeRecovery(nodeLabel string) error {
	err := m.Service.HandleNodeRecovery(nodeLabel)
	if err == nil && m.mut == MutResurrect {
		for _, t := range m.zombies[nodeLabel] {
			m.Scheduler().Grid().ForceBook(t)
		}
		m.zombies[nodeLabel] = nil
	}
	return err
}
