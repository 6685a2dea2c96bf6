package gridsim

import (
	"strconv"
	"strings"

	"ecosched/internal/sim"
)

// CanonicalState appends a deterministic, complete serialization of the
// grid — clock, failed-node set, every booking in (node, start) order with
// its charged fee, and the per-domain income ledger — to b. Two grids with
// the same observable state produce byte-identical serializations whatever
// history led to them, which is exactly what the model checker's
// state-hashing needs: canonical bytes in, canonical hash out.
func (g *Grid) CanonicalState(b *strings.Builder) {
	g.WriteState(&canonicalWriter{b: b})
}

// canonicalWriter formats each part of a streamed state as one line with
// the bytes fmt's %d, %s and %t and sim.Money's String would write, built in
// line and copied to b.
type canonicalWriter struct {
	b    *strings.Builder
	line []byte
}

func (w *canonicalWriter) Clock(now sim.Time) {
	w.line = strconv.AppendInt(append(w.line[:0], "grid now="...), int64(now), 10)
	w.flush()
}

func (w *canonicalWriter) Failure(f NodeFailureState) {
	w.line = append(append(append(w.line[:0], "failed "...), f.Node...), " at="...)
	w.line = strconv.AppendInt(w.line, int64(f.At), 10)
	w.flush()
}

func (w *canonicalWriter) Booking(t TaskState) {
	b := append(append(append(w.line[:0], "task "...), t.Name...), " node="...)
	b = append(append(b, t.Node...), " span="...)
	b = strconv.AppendInt(b, int64(t.Span.Start), 10)
	b = strconv.AppendInt(append(b, '-'), int64(t.Span.End), 10)
	b = strconv.AppendBool(append(b, " local="...), t.Local)
	b = appendMoney(append(b, " cost="...), t.Cost)
	w.line = appendMoney(append(b, " charged="...), t.Charged)
	w.flush()
}

func (w *canonicalWriter) Ledger(in DomainIncomeState) {
	w.line = append(append(append(w.line[:0], "income "...), in.Domain...), '=')
	w.line = appendMoney(w.line, in.Amount)
	w.flush()
}

// flush ends the line and copies it to the builder.
func (w *canonicalWriter) flush() {
	w.line = append(w.line, '\n')
	w.b.Write(w.line)
}

// appendMoney appends m as its String method writes it: two decimals.
func appendMoney(b []byte, m sim.Money) []byte {
	return strconv.AppendFloat(b, float64(m), 'f', 2, 64)
}

// ForceBook inserts a booking bypassing every rule Book enforces — overlap,
// clock, failed-node — and without crediting the owner. The task is
// appended to its node's list as-is, so a caller can even construct
// out-of-order lists. This is a corruption hook for the invariant auditor's
// self-tests and the model checker's mutation harness: it builds the broken
// states the production paths must never reach, proving the checkers would
// flag them. Production code must only ever book through Book or Commit.
// A task on a node outside the pool has no list to land in and is dropped.
func (g *Grid) ForceBook(t Task) {
	if g.pool.Node(t.Node) != nil {
		b := &g.booked[t.Node]
		g.metrics.BookingsMoved.Add(int64(b.insert(len(b.live()), t)))
		g.jobBooked(t)
	}
	g.epoch++
}

// AdjustIncome shifts a domain's income ledger by delta without any
// matching booking or cancellation. Like ForceBook this is a corruption
// hook for checker self-tests (e.g. simulating a double refund that drives
// a ledger negative); no production path calls it.
func (g *Grid) AdjustIncome(domain string, delta sim.Money) {
	g.income[domain] += delta
	g.epoch++
}
