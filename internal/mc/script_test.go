package mc

import (
	"fmt"
	"strings"

	"ecosched/internal/fault"
)

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
		default:
			// The environment actions take their keywords from fault.Kind.
			kind, err := fault.ParseKind(fields[0])
			if err != nil {
				return nil, fmt.Errorf("mc: line %d: unknown action %q", ln+1, fields[0])
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("mc: line %d: %s needs a node name", ln+1, fields[0])
			}
			n := nodeIndex(u, fields[1])
			if n < 0 {
				return nil, fmt.Errorf("mc: line %d: unknown node %q", ln+1, fields[1])
			}
			a = Action{Kind: ActFail + ActionKind(kind), Arg: n}
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
