package gridsim

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// cancelJobOracle is CancelJob as a full scan: every node in pool order,
// every booking on it, each removal leaving a fresh plain list. The
// job→nodes index must reproduce it exactly — returned tasks, refund order,
// store writes.
func cancelJobOracle(g *Grid, name string) []Task {
	var out []Task
	for _, node := range g.pool.Nodes() {
		id := node.ID
		list := g.bookings(id)
		for i := 0; i < len(list); {
			t := list[i]
			if !t.Local && t.Name == name {
				out = append(out, t)
				g.income[node.Domain] -= t.charged
				list = slices.Delete(slices.Clone(list), i, i+1)
				g.booked[id] = nodeBookings{all: list}
				g.storeUnbook(node, t.Span)
				g.epoch++
				continue
			}
			i++
		}
	}
	return out
}

// advanceOracle is Advance as a plain filter over every live booking of
// every node into a fresh list with no dead prefix. The expired-prefix drop
// must keep exactly what it keeps.
func advanceOracle(g *Grid, to sim.Time) error {
	if to < g.now {
		return fmt.Errorf("gridsim: cannot advance backwards from %v to %v", g.now, to)
	}
	g.now = to
	for id := range g.booked {
		var kept []Task
		for _, t := range g.bookings(resource.NodeID(id)) {
			if t.Span.End > to {
				kept = append(kept, t)
			}
		}
		g.booked[id] = nodeBookings{all: kept}
	}
	g.storeAdvance(to)
	g.epoch++
	return nil
}

// FuzzGridBookings drives the grid's booking side — Book, Commit,
// CancelJob, FailNode, RecoverNode, RevokeInterval, Advance, ForceBook, a
// publication whose views the search writes to and hands back, and an
// ExportState → RestoreState round trip into a fresh grid, also right after
// an Advance — on two grids at once: the production one, and a twin whose
// CancelJob and Advance are the plain-list oracles above. One op packs a
// node's array full and books once more, so a dead prefix left by Advance
// meets an insert into a full array. After every operation the two must have
// returned the same tasks and hold the same bookings (Tasks) and income; both
// live stores must match the rebuild oracle; every production list must hold
// zero tasks outside its live part; and the production grid's job→nodes index
// must list exactly the jobs holding a live VO booking, each with the node of
// every such booking in ID order.
func FuzzGridBookings(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 10, 5, 1, 2, 12, 4, 2, 1, 30, 8, 3, 1, 0, 0, 6, 5, 0, 0})
	f.Add(uint8(1), []byte{8, 0, 20, 6, 8, 1, 20, 6, 3, 0, 0, 0, 4, 1, 3, 0, 5, 1, 0, 0, 6, 40, 0, 0})
	f.Add(uint8(2), []byte{1, 3, 5, 9, 9, 0, 0, 0, 2, 0, 8, 3, 7, 0, 0, 0, 3, 0, 0, 0, 6, 9, 0, 0})
	// Long streams under plain `go test`, where only the corpus runs.
	rng := sim.NewRNG(34)
	for k := 0; k < 12; k++ {
		ops := make([]byte, 4*150)
		for i := range ops {
			ops[i] = byte(rng.IntN(256))
		}
		f.Add(uint8(k), ops)
	}
	// Three bookings on cpu1, the first expired behind a dead prefix, then a
	// pack past the full array and ForceBook, CancelJob, RevokeInterval and
	// FailNode on the node, ending with an Advance and an export right away.
	f.Add(uint8(0), []byte{1, 0, 0, 9, 1, 0, 20, 9, 0, 0, 40, 9, 7, 0, 15, 0, 11, 0, 0, 0,
		7, 0, 25, 0, 10, 0, 0, 5, 3, 0, 0, 0, 6, 0, 5, 30, 4, 0, 0, 0, 12, 0, 30, 0})

	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		nodes := make([]*resource.Node, 5)
		for i := range nodes {
			nodes[i] = &resource.Node{
				Name:        fmt.Sprintf("cpu%d", i+1),
				Performance: 1 + float64(i%3),
				Price:       sim.Money(1 + i%4),
				Domain:      fmt.Sprintf("d%d", i%2),
			}
		}
		pool := resource.MustNewPool(nodes)
		shards := 1 + int(shape)%3
		grid := func() *Grid {
			g, err := New(pool)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.SetSharding(shards, func(n *resource.Node) int { return int(n.ID) % shards }); err != nil {
				t.Fatal(err)
			}
			return g
		}
		g, o := grid(), grid()
		const horizon = 300

		for i := 0; i+3 < len(ops); i += 4 {
			op, a, b, c := ops[i]%14, ops[i+1], ops[i+2], ops[i+3]
			node := resource.NodeID(int(a) % len(nodes))
			name := fmt.Sprintf("j%d", int(a/8)%4)
			span := sim.Interval{Start: g.now.Add(sim.Duration(b % 120)), End: g.now.Add(sim.Duration(b%120) + 1 + sim.Duration(c%60))}
			label := fmt.Sprintf("op %d (%d)", i/4, op)
			var got, want []Task
			var gotErr, wantErr error
			switch op {
			case 0, 1: // a VO booking, or an owner-local one
				tk := Task{Name: name, Node: node, Span: span, Local: op == 1}
				gotErr, wantErr = g.Book(tk), o.Book(tk)
			case 2: // a window over up to three nodes, committed whole or not at all
				w := &slot.Window{JobName: name}
				for k := 0; k < 1+int(c)%3; k++ {
					n := pool.Node(resource.NodeID((int(a) + k) % len(nodes)))
					used := sim.Interval{Start: span.Start, End: span.Start.Add(sim.Duration(1 + (int(c)+k*7)%40))}
					w.Placements = append(w.Placements, slot.Placement{Source: slot.New(n, used.Start, used.End), Used: used})
				}
				gotErr, wantErr = g.Commit(w), o.Commit(w)
			case 3:
				got, want = g.CancelJob(name), cancelJobOracle(o, name)
			case 4:
				at := g.now.Add(sim.Duration(b % 50))
				got, gotErr = g.FailNode(node, at)
				want, wantErr = o.FailNode(node, at)
			case 5:
				gotErr, wantErr = g.RecoverNode(node), o.RecoverNode(node)
			case 6:
				got, gotErr = g.RevokeInterval(node, span)
				want, wantErr = o.RevokeInterval(node, span)
			case 7:
				to := g.now.Add(sim.Duration(b % 40))
				gotErr, wantErr = g.Advance(to), advanceOracle(o, to)
			case 8: // publish, cut a window out of a view, hand the views back
				views, err := g.ShardViews(g.now.Add(horizon + sim.Duration(c%2)*sim.Duration(b)))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if v := views[int(a)%len(views)]; v.Len() > 0 {
					s := v.At(int(b) % v.Len())
					if err := v.SubtractInterval(s, sim.Interval{Start: s.Start(), End: s.Start() + 1}); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				g.ReleaseViews(views)
				if _, err := o.ShardViews(o.now.Add(horizon + sim.Duration(c%2)*sim.Duration(b))); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			case 9, 12: // export (after an Advance), restore into a fresh grid, carry on with that
				if op == 12 {
					to := g.now.Add(sim.Duration(b % 40))
					gotErr, wantErr = g.Advance(to), advanceOracle(o, to)
				}
				fresh := grid()
				if err := fresh.RestoreState(g.ExportState()); err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
				g = fresh
			case 10: // force a VO booking onto the node's tail, past every store horizon
				start := g.now.Add(600)
				if live := g.bookings(node); len(live) > 0 && live[len(live)-1].Span.End > start {
					start = live[len(live)-1].Span.End
				}
				tk := Task{Name: name, Node: node, Span: sim.Interval{Start: start, End: start.Add(1 + sim.Duration(c%20))}}
				g.ForceBook(tk)
				o.ForceBook(tk)
			case 11: // behind a dead prefix, book local tasks past the node's tail until the array is full, then one more
				// Without a dead prefix the last insert grows the array; a
				// small room keeps packs from compounding with that growth.
				bk := &g.booked[node]
				if bk.head == 0 || cap(bk.all)-len(bk.all) > 16 {
					break
				}
				start := g.now.Add(sim.Duration(b % 120))
				if live := g.bookings(node); len(live) > 0 && live[len(live)-1].Span.End > start {
					start = live[len(live)-1].Span.End
				}
				dead, full, room := bk.head, cap(bk.all), cap(bk.all)-len(bk.all)
				for k := 0; k <= room && gotErr == nil; k++ {
					at := start.Add(sim.Duration(2 * k))
					tk := Task{Name: "pack", Node: node, Span: sim.Interval{Start: at, End: at + 1}, Local: true}
					gotErr, wantErr = g.Book(tk), o.Book(tk)
				}
				if gotErr == nil && cap(bk.all) != full {
					t.Fatalf("%s: an insert into a full array behind a %d-booking dead prefix grew it from %d to %d", label, dead, full, cap(bk.all))
				}
			default: // a few more VO bookings: most ops should write
				tk := Task{Name: name, Node: node, Span: span}
				gotErr, wantErr = g.Book(tk), o.Book(tk)
			}

			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, oracle twin says %v", label, gotErr, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: returned %v, oracle twin returned %v", label, got, want)
			}
			for _, n := range pool.Nodes() {
				if have, want := g.Tasks(n.ID), o.Tasks(n.ID); !slices.Equal(have, want) {
					t.Fatalf("%s: %s booked %v, oracle twin %v", label, n.Name, have, want)
				}
				b := g.booked[n.ID]
				for k, tk := range b.all[:cap(b.all)] {
					if (k < b.head || k >= len(b.all)) && tk != (Task{}) {
						t.Fatalf("%s: %s holds %v at %d outside its live part [%d, %d)", label, n.Name, tk, k, b.head, len(b.all))
					}
				}
			}
			if !maps.Equal(g.income, o.income) {
				t.Fatalf("%s: income %v, oracle twin %v", label, g.income, o.income)
			}
			if g.now != o.now {
				t.Fatalf("%s: clock %v, oracle twin %v", label, g.now, o.now)
			}
			for who, gr := range map[string]*Grid{"grid": g, "oracle twin": o} {
				if err := gr.VacantStoreCoherent(); err != nil {
					t.Fatalf("%s: %s: %v", label, who, err)
				}
			}
			wantJobs := map[string][]resource.NodeID{}
			for _, n := range pool.Nodes() {
				for _, tk := range g.Tasks(n.ID) {
					if !tk.Local {
						wantJobs[tk.Name] = append(wantJobs[tk.Name], n.ID)
					}
				}
			}
			if !maps.EqualFunc(g.jobNodes, wantJobs, slices.Equal) {
				t.Fatalf("%s: job→nodes index %v, live VO bookings say %v", label, g.jobNodes, wantJobs)
			}
		}
	})
}
