package mc

import (
	"fmt"
	"strings"

	"ecosched/internal/fault"
)

// ActionKind enumerates the explorer's transition alphabet.
type ActionKind int

const (
	// ActSubmit submits job Arg through the service into the job queue.
	ActSubmit ActionKind = iota
	// ActTick advances the clock one step without scheduling — the retry
	// backoff timer firing, or dead time between rounds.
	ActTick
	// ActFail, ActRecover and ActRevoke inject the fault.Event of the
	// same kind on node Arg (a revoke reclaims the universe's RevokeSpan).
	// They are consecutive and in fault.Kind order; see event.
	ActFail
	ActRecover
	ActRevoke
	// ActEvaluate opens a round: BeginRound (seed, freeze the batch)
	// followed by Evaluate (publish, search and
	// optimize against the epoch-stamped snapshot). Read-only on the grid,
	// so the chosen combination is optimistic.
	ActEvaluate
	// ActApply closes the open round: the serial applier re-validates the
	// pending plan window by window, postpones the rest (stale rejections
	// included), and Finish advances the clock one step.
	ActApply
	// ActCrash simulates a process crash at a committed boundary followed by
	// durability recovery: the complete canonical state is exported through
	// the codec's checkpoint wire format, decoded back, and restored in
	// place. The post-recovery state must hash-equal the pre-crash committed
	// state — a divergence is a safety violation. Only between rounds (an
	// open round is by definition uncommitted).
	ActCrash
)

// event maps ActFail, ActRecover and ActRevoke onto fault.Kind.
func (k ActionKind) event() fault.Kind { return fault.Kind(k - ActFail) }

// Action is one transition: a kind plus a job index (ActSubmit) or node
// index (ActFail/ActRecover/ActRevoke); Arg is unused otherwise.
type Action struct {
	Kind ActionKind
	Arg  int
}

// Render writes the action in the replay-script syntax: the keyword alone
// for the step actions, keyword plus the job or node name otherwise. The
// environment actions take their keywords from fault.Kind.
func (a Action) Render(u *Universe) string {
	switch a.Kind {
	case ActSubmit:
		return "submit " + u.Jobs[a.Arg].Name
	case ActTick:
		return "tick"
	case ActFail, ActRecover, ActRevoke:
		return a.Kind.event().String() + " " + u.Nodes[a.Arg].Name
	case ActEvaluate:
		return "evaluate"
	case ActApply:
		return "apply"
	case ActCrash:
		return "crash"
	default:
		return fmt.Sprintf("action(%d,%d)", int(a.Kind), a.Arg)
	}
}

// RenderTrace writes a whole trace, one action per line.
func RenderTrace(u *Universe, trace []Action) string {
	var b strings.Builder
	for _, a := range trace {
		b.WriteString(a.Render(u))
		b.WriteByte('\n')
	}
	return b.String()
}
