// Package mc is a bounded exhaustive model checker for the schedule/commit
// protocol: it enumerates every interleaving of scheduler steps and
// environment events over a tiny universe (2–3 nodes, 2–3 jobs) and checks
// the full safety, determinism, and liveness property set after every
// transition. Crucially it drives the REAL metasched/gridsim/fault code —
// there is no parallel model to drift out of sync; the explored transition
// system is the production scheduler itself.
//
// # States and transitions
//
// A state is a complete session: grid clock, bookings, income ledgers,
// failure marks, scheduler queue/placed/dropped/retry ledgers, any open
// evaluate/apply round, and the auditor's cancelled-reservation watch list.
// States are identified by hashing the canonical serializations
// (gridsim.Grid.CanonicalState, metasched.Scheduler.CanonicalState,
// metasched.Round.CanonicalState, fault.Audit.CancelledKeys) — equal
// hashes mean indistinguishable futures, so interleavings that commute
// collapse to one node.
//
// An action is a service event in the shared fault.Event form — submit job,
// fail node, recover node, revoke interval — or one of four harness steps:
// evaluate (BeginRound+Evaluate), apply (Apply+Finish), tick (idle clock
// advance) and crash (checkpoint round trip). The explorer splits the round
// event into evaluate and apply, so every schedule/commit race is
// reachable: a node failure, revocation, or clock advance can land between
// the optimizer choosing a window and the grid committing it, which is
// exactly the optimistic-concurrency path Apply must handle by postponing
// the stale job.
//
// # Exploration
//
// The scheduler has no snapshot/restore, so the explorer replays each
// candidate trace from the root: breadth-first over the frontier, one fresh
// replay per successor, bounded by depth and distinct-state count. Per-node
// metadata (submitted set, failed set, open-round flag) makes enabled
// actions computable without replaying the parent, and a frontier trace is
// a list of indices into the universe's alphabet of actions.
//
// # Properties
//
//   - Safety: the full fault.Audit invariant set after every transition —
//     booking validity, non-negative income, job and cancellation
//     conservation, no live reservation on failed nodes, no resurrection.
//   - Determinism: a sampled re-execution of the trace must reproduce the
//     state hash bit for bit.
//   - Liveness: from sampled leaf states, a bounded fault-free drain
//     (recover everything, iterate) must land every submitted job in
//     placed or dropped — nothing queues forever.
//
// A violation is minimized by greedy action deletion and rendered as a
// replayable script, one action per line: a step's keyword, or an event in
// fault's text form without its time ("submit:j1", "fail:n2"). So a
// model-checker finding becomes a deterministic regression test input, read
// back by the parser plans use.
package mc
