package sim

import (
	"fmt"
	"math"
)

// Money is an amount of VO currency ("credits"). Prices per time unit and
// accumulated usage costs are both Money. The type is float64-based because
// node prices in the paper's generator are continuous (0.75p..1.25p with
// p = 1.7^performance). Nothing discretizes it: the dynamic-programming
// optimizer (internal/dp) indexes its states by integral time and carries
// cost as an exact float sum.
type Money float64

// MoneyEpsilon is the tolerance used by approximate money comparisons.
// Accumulated float error over a window of at most a few dozen slots stays
// far below this bound.
const MoneyEpsilon Money = 1e-6

// LessEq reports whether m <= n up to MoneyEpsilon.
func (m Money) LessEq(n Money) bool { return m <= n+MoneyEpsilon }

// ApproxEq reports whether m and n differ by at most MoneyEpsilon.
func (m Money) ApproxEq(n Money) bool {
	d := m - n
	if d < 0 {
		d = -d
	}
	return d <= MoneyEpsilon
}

// String renders the amount with two decimals.
func (m Money) String() string { return fmt.Sprintf("%.2f", float64(m)) }

// IsFinite reports whether m is neither NaN nor infinite.
func (m Money) IsFinite() bool {
	f := float64(m)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
