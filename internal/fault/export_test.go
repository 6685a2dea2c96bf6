package fault

import "fmt"

// Resume fast-forwards the plan cursor past the first applied events without
// re-applying them: they already fired in a previous session whose committed
// state this session's scheduler was recovered from. Only a fresh session can
// resume. The crash-storm soak uses it to stitch a recovered continuation
// onto a crashed prefix and still assemble Run's exact transcript.
func (s *Session) Resume(applied int) error {
	if applied < 0 || applied > s.plan.Len() {
		return fmt.Errorf("fault: resume at event %d of %d", applied, s.plan.Len())
	}
	if s.next != 0 {
		return fmt.Errorf("fault: resume after %d events already applied", s.next)
	}
	s.next = applied
	return nil
}

// Pending reports the plan events a finished Run leaves unapplied: Run(n)
// stops after exactly n rounds whatever remains.
func (s *Session) Pending() int {
	return s.plan.Len() - s.next
}

// Drain makes the end-of-plan tail explicit: it keeps running audited rounds
// until Pending reaches zero — every plan event applied — or the round budget
// is exhausted, which is an error naming the events still pending. Each drain
// round advances the clock exactly like a Run round; the transcript gets the
// same iteration lines followed by a drain footer. It returns the number of
// rounds run.
func (s *Session) Drain(maxRounds int) (int, error) {
	ran := 0
	for s.Pending() > 0 {
		if ran >= maxRounds {
			return ran, fmt.Errorf("fault: drain: %d item(s) still pending after %d round(s)", s.Pending(), maxRounds)
		}
		if _, err := s.Step(); err != nil {
			return ran, err
		}
		ran++
	}
	fmt.Fprintf(s.w, "drained rounds=%d events=%d/%d\n", ran, s.next, s.plan.Len())
	return ran, nil
}
