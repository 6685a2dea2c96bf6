package mc

import (
	"fmt"
	"strings"
)

// ActionKind enumerates the explorer's transition alphabet.
type ActionKind int

const (
	// ActSubmit submits job Arg through the service into the job queue.
	ActSubmit ActionKind = iota
	// ActTick advances the clock one step without scheduling — the retry
	// backoff timer firing, or dead time between rounds.
	ActTick
	// ActFail crashes node Arg.
	ActFail
	// ActRecover re-joins failed node Arg.
	ActRecover
	// ActRevoke reclaims the universe's RevokeSpan on node Arg.
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

// Action is one transition: a kind plus a job index (ActSubmit) or node
// index (ActFail/ActRecover/ActRevoke); Arg is unused otherwise.
type Action struct {
	Kind ActionKind
	Arg  int
}

// Render writes the action in the replay-script syntax: the keyword alone
// for the step actions, keyword plus the job or node name otherwise.
func (a Action) Render(u *Universe) string {
	switch a.Kind {
	case ActSubmit:
		return "submit " + u.Jobs[a.Arg].Name
	case ActTick:
		return "tick"
	case ActFail:
		return "fail " + u.Nodes[a.Arg].Name
	case ActRecover:
		return "recover " + u.Nodes[a.Arg].Name
	case ActRevoke:
		return "revoke " + u.Nodes[a.Arg].Name
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
