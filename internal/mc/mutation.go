package mc

import "fmt"

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
	// pending plan is stale at ActApply, the plan's placements are written
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

// String names the mutation; also the CLI flag syntax.
func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutDoubleRefund:
		return "double-refund"
	case MutResurrect:
		return "resurrect"
	case MutBlindApply:
		return "blind-apply"
	case MutLossyCrash:
		return "lossy-crash"
	default:
		return fmt.Sprintf("mutation(%d)", int(m))
	}
}

// ParseMutation parses the CLI spelling of a mutation.
func ParseMutation(s string) (Mutation, error) {
	switch s {
	case "", "none":
		return MutNone, nil
	case "double-refund":
		return MutDoubleRefund, nil
	case "resurrect":
		return MutResurrect, nil
	case "blind-apply":
		return MutBlindApply, nil
	case "lossy-crash":
		return MutLossyCrash, nil
	default:
		return MutNone, fmt.Errorf("mc: unknown mutation %q (want none, double-refund, resurrect, blind-apply, lossy-crash)", s)
	}
}
