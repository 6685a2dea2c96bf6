package mc

import (
	"fmt"
	"strings"

	"ecosched/internal/fault"
)

// SessionCompatible reports whether the trace has the shape fault.Session
// can reproduce: all submits before the first evaluate, every evaluate
// immediately followed by its apply, fault events only between rounds, no
// bare clock ticks or crashes, and an apply as the final action (so every
// event fires within Session.Run's round loop). For such traces the explorer's
// transcript and a Session driven by the trace's fault plan must be
// byte-identical — the differential suite pins exactly that.
func SessionCompatible(trace []Action) bool {
	sawEvaluate := false
	open := false
	last := -1
	for i, a := range trace {
		switch a.Kind {
		case ActSubmit:
			if sawEvaluate {
				return false
			}
		case ActEvaluate:
			if open {
				return false
			}
			sawEvaluate = true
			open = true
		case ActApply:
			if !open {
				return false
			}
			open = false
			last = i
		case ActFail, ActRecover, ActRevoke:
			if open {
				return false
			}
		default:
			return false
		}
	}
	return !open && last == len(trace)-1
}

// SessionTranscripts replays a session-compatible trace twice — once
// through the explorer's instance, once through a fresh fault.Session
// driven by the plan the first replay recorded — and returns both
// transcripts. The caller asserts byte equality.
func SessionTranscripts(u *Universe, trace []Action) (mcT, sessT string, err error) {
	if !SessionCompatible(trace) {
		return "", "", fmt.Errorf("mc: trace is not session-compatible")
	}

	// Explorer side: drive the instance with a transcript writer, then
	// append the summary footer Session.Run writes.
	var mcB strings.Builder
	in, err := Replay(u, MutNone, trace, &mcB)
	if err != nil {
		return "", "", err
	}
	applied := len(in.Events())
	fault.WriteSummary(&mcB, in.sched, applied, applied)

	// Session side: fresh service, all jobs submitted up front, the
	// recorded events as the fault plan, one Run round per apply.
	rounds := 0
	for _, a := range trace {
		if a.Kind == ActApply {
			rounds++
		}
	}
	plan, err := fault.NewPlan(in.Events()...)
	if err != nil {
		return "", "", err
	}
	fresh, err := NewInstance(u, MutNone, nil)
	if err != nil {
		return "", "", err
	}
	for _, a := range trace {
		if a.Kind == ActSubmit {
			if err := fresh.svc.Submit(u.buildJob(a.Arg)); err != nil {
				return "", "", err
			}
		}
	}
	var sessB strings.Builder
	sess, err := fault.NewSession(fresh.svc, plan, &sessB)
	if err != nil {
		return "", "", err
	}
	if err := sess.Run(rounds); err != nil {
		return "", "", err
	}
	return mcB.String(), sessB.String(), nil
}
