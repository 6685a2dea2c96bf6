package gridsim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// fprintfCanonical is the reference CanonicalState must match byte for
// byte: each line written by fmt.Fprintf, as the serialization was first
// defined.
func fprintfCanonical(g *Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid now=%d\n", int64(g.now))
	for _, n := range g.pool.Nodes() {
		if at, down := g.failed[n.ID]; down {
			fmt.Fprintf(&b, "failed %s at=%d\n", n.Label(), int64(at))
		}
	}
	for _, n := range g.pool.Nodes() {
		for _, t := range g.bookings(n.ID) {
			fmt.Fprintf(&b, "task %s node=%s span=%d-%d local=%t cost=%v charged=%v\n",
				t.Name, n.Label(), int64(t.Span.Start), int64(t.Span.End), t.Local, t.Cost, t.charged)
		}
	}
	domains := make([]string, 0, len(g.income))
	for d := range g.income {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		fmt.Fprintf(&b, "income %s=%v\n", d, g.income[d])
	}
	return b.String()
}

// TestCanonicalStateMatchesFprintf covers every line kind — failure marks,
// local and VO bookings, income — with fees at ±0, subnormal, huge (1e21,
// MaxFloat64) and tiny (1e-7) magnitudes, and the non-finite values a
// corrupted ledger can hold.
func TestCanonicalStateMatchesFprintf(t *testing.T) {
	fees := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 33.25, 123456.5, 1e6, 1e20, 1e21, -1e21, 1e-4, 1e-5, 1e-7, -1e-7,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff), math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "n1", Performance: 1, Price: 1, Domain: "east"},
		{Performance: 2, Price: 2, Domain: "west"}, // unnamed: labelled node1
		{Name: "n<3>", Performance: 1.5, Price: 3},
	})
	g, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	g.now = -7
	if _, err := g.FailNode(2, -3); err != nil {
		t.Fatal(err)
	}
	for i, f := range fees {
		g.ForceBook(Task{
			Name:    fmt.Sprintf("j%d", i),
			Node:    resource.NodeID(i % 2),
			Span:    sim.Interval{Start: sim.Time(100 * i), End: sim.Time(100*i + 50)},
			Local:   i%3 == 0,
			Cost:    sim.Money(f),
			charged: sim.Money(-f),
		})
		g.AdjustIncome(fmt.Sprintf("d%d", i), sim.Money(f))
	}
	var b strings.Builder
	g.CanonicalState(&b)
	if got, want := b.String(), fprintfCanonical(g); got != want {
		t.Fatalf("CanonicalState differs from the Fprintf form\n got %q\nwant %q", got, want)
	}
}
