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

// ParseScript parses a replay script back into a trace: one action per
// line, '#' comments and blank lines ignored. Render and ParseScript are
// inverses, which is what makes a printed counterexample replayable.
func ParseScript(u *Universe, script string) ([]Action, error) {
	var trace []Action
	for ln, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var a Action
		switch fields[0] {
		case "tick", "evaluate", "apply", "crash":
			if len(fields) != 1 {
				return nil, fmt.Errorf("mc: line %d: %q takes no argument", ln+1, fields[0])
			}
			switch fields[0] {
			case "tick":
				a.Kind = ActTick
			case "evaluate":
				a.Kind = ActEvaluate
			case "apply":
				a.Kind = ActApply
			case "crash":
				a.Kind = ActCrash
			}
		case "submit":
			if len(fields) != 2 {
				return nil, fmt.Errorf("mc: line %d: submit needs a job name", ln+1)
			}
			j := jobIndex(u, fields[1])
			if j < 0 {
				return nil, fmt.Errorf("mc: line %d: unknown job %q", ln+1, fields[1])
			}
			a = Action{Kind: ActSubmit, Arg: j}
		case "fail", "recover", "revoke":
			if len(fields) != 2 {
				return nil, fmt.Errorf("mc: line %d: %s needs a node name", ln+1, fields[0])
			}
			n := nodeIndex(u, fields[1])
			if n < 0 {
				return nil, fmt.Errorf("mc: line %d: unknown node %q", ln+1, fields[1])
			}
			switch fields[0] {
			case "fail":
				a = Action{Kind: ActFail, Arg: n}
			case "recover":
				a = Action{Kind: ActRecover, Arg: n}
			case "revoke":
				a = Action{Kind: ActRevoke, Arg: n}
			}
		default:
			return nil, fmt.Errorf("mc: line %d: unknown action %q", ln+1, fields[0])
		}
		trace = append(trace, a)
	}
	return trace, nil
}

func jobIndex(u *Universe, name string) int {
	for i, j := range u.Jobs {
		if j.Name == name {
			return i
		}
	}
	return -1
}

func nodeIndex(u *Universe, name string) int {
	for i, n := range u.Nodes {
		if n.Name == name {
			return i
		}
	}
	return -1
}
