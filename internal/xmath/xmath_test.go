package xmath

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCloseBasics(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-12, true},
		{1, 1 + 1e-10, 1e-9, true},
		{1, 1.1, 1e-3, false},
		{0, 1e-12, 1e-9, true},
		{0, 1e-3, 1e-9, false},
		{1e12, 1e12 * (1 + 1e-10), 1e-9, true},
		{-5, -5, 0, true},
	}
	for _, c := range cases {
		if got := Close(c.a, c.b, c.tol); got != c.want {
			t.Errorf("Close(%v,%v,%v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestSumCompensation(t *testing.T) {
	// 1 + 1e100 - 1e100 + 1 loses a term with naive summation.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := Sum(xs); got != 2 {
		t.Errorf("Sum = %v, want 2", got)
	}
}

func TestSumMatchesAccumulator(t *testing.T) {
	f := func(xs []float64) bool {
		var acc Accumulator
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			acc.Add(x)
		}
		s := Sum(xs)
		return (math.IsNaN(s) && math.IsNaN(acc.Value())) || Close(s, acc.Value(), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorReset(t *testing.T) {
	var acc Accumulator
	acc.Add(3)
	acc.Add(4)
	acc.Reset()
	if acc.Value() != 0 {
		t.Fatalf("Value after Reset = %v, want 0", acc.Value())
	}
	acc.Add(1.5)
	if acc.Value() != 1.5 {
		t.Fatalf("Value = %v, want 1.5", acc.Value())
	}
}

func TestExpm1Div(t *testing.T) {
	if got := Expm1Div(0); got != 1 {
		t.Errorf("Expm1Div(0) = %v, want 1", got)
	}
	// For small x, (e^x-1)/x ~= 1 + x/2.
	x := 1e-8
	if got, want := Expm1Div(x), 1+x/2; !Close(got, want, 1e-12) {
		t.Errorf("Expm1Div(%v) = %v, want %v", x, got, want)
	}
	if got, want := Expm1Div(1.0), math.E-1; !Close(got, want, 1e-12) {
		t.Errorf("Expm1Div(1) = %v, want %v", got, want)
	}
}

func TestMinimizeGoldenQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.25) * (x - 3.25) }
	x, fx := MinimizeGolden(f, 0, 10, 1e-12)
	if !Close(x, 3.25, 1e-6) {
		t.Errorf("argmin = %v, want 3.25", x)
	}
	if fx > 1e-10 {
		t.Errorf("min value = %v, want ~0", fx)
	}
}

func TestMinimizeGoldenReversedBounds(t *testing.T) {
	f := func(x float64) float64 { return math.Cosh(x - 1) }
	x, _ := MinimizeGolden(f, 5, -5, 1e-12)
	if !Close(x, 1, 1e-6) {
		t.Errorf("argmin = %v, want 1", x)
	}
}

func TestMinimizeGoldenRandomQuadratics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		c := rng.Float64()*20 - 10
		f := func(x float64) float64 { return 2*(x-c)*(x-c) + 1 }
		x, fx := MinimizeGolden(f, -15, 15, 1e-12)
		if !Close(x, c, 1e-5) {
			t.Fatalf("argmin = %v, want %v", x, c)
		}
		if !Close(fx, 1, 1e-9) {
			t.Fatalf("min = %v, want 1", fx)
		}
	}
}

func TestMinimizeConvexInt(t *testing.T) {
	f := func(k int) float64 { d := float64(k) - 17.3; return d * d }
	k, fk := MinimizeConvexInt(f, 1, 1000)
	if k != 17 {
		t.Errorf("argmin = %d, want 17", k)
	}
	if !Close(fk, 0.09, 1e-12) {
		t.Errorf("min = %v, want 0.09", fk)
	}
}

func TestMinimizeConvexIntTinyRange(t *testing.T) {
	f := func(k int) float64 { return float64(k) }
	k, _ := MinimizeConvexInt(f, 5, 5)
	if k != 5 {
		t.Errorf("argmin = %d, want 5", k)
	}
	k, _ = MinimizeConvexInt(f, 7, 3) // reversed bounds
	if k != 3 {
		t.Errorf("argmin = %d, want 3", k)
	}
}

func TestIntNeighborhood(t *testing.T) {
	cases := []struct {
		x    float64
		want []int
	}{
		{2.3, []int{2, 3}},
		{0.4, []int{1}},
		{-3, []int{1}},
		{5, []int{5}},
		{1.0, []int{1}},
	}
	for _, c := range cases {
		got := IntNeighborhood(c.x)
		if len(got) != len(c.want) {
			t.Errorf("IntNeighborhood(%v) = %v, want %v", c.x, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("IntNeighborhood(%v) = %v, want %v", c.x, got, c.want)
			}
		}
	}
}

func TestArgminInt(t *testing.T) {
	f := func(k int) float64 { return math.Abs(float64(k) - 6) }
	k, fk := ArgminInt(f, []int{2, 5, 9})
	if k != 5 || fk != 1 {
		t.Errorf("ArgminInt = (%d,%v), want (5,1)", k, fk)
	}
}

func TestArgminIntPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty candidates")
		}
	}()
	ArgminInt(func(int) float64 { return 0 }, nil)
}

func TestBrentSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Brent(f, 0, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if !Close(x, math.Sqrt2, 1e-10) {
		t.Errorf("root = %v, want sqrt(2)", x)
	}
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if x, err := Brent(f, 1, 5, 1e-12); err != nil || x != 1 {
		t.Errorf("root = (%v,%v), want (1,nil)", x, err)
	}
	if x, err := Brent(f, -3, 1, 1e-12); err != nil || x != 1 {
		t.Errorf("root = (%v,%v), want (1,nil)", x, err)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Brent(f, -1, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentTranscendental(t *testing.T) {
	// Young/Daly-like fixed point: find W with W^2 = K (via exp form).
	f := func(w float64) float64 { return math.Exp(w) - 3 }
	x, err := Brent(f, 0, 5, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if !Close(x, math.Log(3), 1e-10) {
		t.Errorf("root = %v, want ln 3", x)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestSqrtRatio(t *testing.T) {
	if got := SqrtRatio(9, 4); !Close(got, 1.5, 1e-12) {
		t.Errorf("SqrtRatio(9,4) = %v, want 1.5", got)
	}
	if !math.IsInf(SqrtRatio(1, 0), 1) {
		t.Error("SqrtRatio(1,0) should be +Inf")
	}
	if !math.IsNaN(SqrtRatio(-1, 1)) {
		t.Error("SqrtRatio(-1,1) should be NaN")
	}
}

func TestGoldenSectionAgainstBruteForce(t *testing.T) {
	// The pattern-overhead shape a/x + b*x has argmin sqrt(a/b); check
	// golden section recovers it across magnitudes.
	for _, ab := range [][2]float64{{330.8, 3.85e-6}, {15, 1e-3}, {2500, 1e-7}} {
		a, b := ab[0], ab[1]
		f := func(x float64) float64 { return a/x + b*x }
		want := math.Sqrt(a / b)
		x, _ := MinimizeGolden(f, want/100, want*100, 1e-12)
		if !Close(x, want, 1e-5) {
			t.Errorf("argmin(a=%v,b=%v) = %v, want %v", a, b, x, want)
		}
	}
}

func TestMinimizeBrentQuadratic(t *testing.T) {
	probes := 0
	f := func(x float64) float64 { probes++; return (x - 3.25) * (x - 3.25) }
	x, fx, interior := MinimizeBrent(f, 0, 1, 10, 1e-10)
	if !Close(x, 3.25, 1e-8) || fx > 1e-15 || !interior {
		t.Errorf("argmin = %v (f = %v, interior %v), want 3.25", x, fx, interior)
	}
	// A parabola is fitted exactly: far fewer probes than golden section.
	if probes > 12 {
		t.Errorf("%d probes for a quadratic", probes)
	}
}

func TestMinimizeBrentOverheadShape(t *testing.T) {
	// x + 1/x has argmin 1; a/x + b*x, the pattern-overhead shape, has
	// argmin sqrt(a/b). Start at the golden point (x0 outside) and
	// off-centre.
	x, fx, interior := MinimizeBrent(func(x float64) float64 { return x + 1/x }, 0.25, 0, 4, 1e-10)
	if !Close(x, 1, 1e-7) || !Close(fx, 2, 1e-14) || !interior {
		t.Errorf("x+1/x: argmin %v f %v interior %v", x, fx, interior)
	}
	for _, ab := range [][2]float64{{330.8, 3.85e-6}, {15, 1e-3}, {2500, 1e-7}} {
		a, b := ab[0], ab[1]
		want := math.Sqrt(a / b)
		x, _, interior := MinimizeBrent(func(x float64) float64 { return a/x + b*x }, want/4, want*1.7, want*4, 1e-10)
		if !Close(x, want, 1e-7) || !interior {
			t.Errorf("argmin(a=%v,b=%v) = %v (interior %v), want %v", a, b, x, interior, want)
		}
	}
}

func TestMinimizeBrentFlatBottom(t *testing.T) {
	// Constant on [2, 5]: any point there is a minimiser; the search must
	// stay inside it and report an interior minimum.
	f := func(x float64) float64 {
		switch {
		case x < 2:
			return 2 - x
		case x > 5:
			return x - 5
		}
		return 0
	}
	x, fx, interior := MinimizeBrent(f, 0, 1, 10, 1e-10)
	if x < 2 || x > 5 || fx != 0 || !interior {
		t.Errorf("flat bottom: x = %v f = %v interior %v", x, fx, interior)
	}
}

func TestMinimizeBrentEdge(t *testing.T) {
	// Increasing on the bracket: the minimum is the left edge, and the
	// caller must be told so it can widen the search.
	x, _, interior := MinimizeBrent(func(x float64) float64 { return x * x }, 1, 2, 4, 1e-10)
	if interior || !Close(x, 1, 1e-8) {
		t.Errorf("left edge: x = %v interior %v", x, interior)
	}
	// Decreasing: the right edge.
	x, _, interior = MinimizeBrent(func(x float64) float64 { return -x }, 1, 2, 4, 1e-10)
	if interior || !Close(x, 4, 1e-8) {
		t.Errorf("right edge: x = %v interior %v", x, interior)
	}
	// Reversed bounds are swapped, not an edge.
	x, _, interior = MinimizeBrent(func(x float64) float64 { return (x - 2) * (x - 2) }, 4, 3, 1, 1e-10)
	if !interior || !Close(x, 2, 1e-8) {
		t.Errorf("reversed bounds: x = %v interior %v", x, interior)
	}
}

func TestMinimizeBrentInf(t *testing.T) {
	// +Inf beyond x = 3 (an evaluator that diverges): the NaN parabolas
	// it causes fall back to golden steps, and the minimum at 2.5 is
	// still found.
	f := func(x float64) float64 {
		if x > 3 {
			return math.Inf(1)
		}
		return (x - 2.5) * (x - 2.5)
	}
	x, fx, interior := MinimizeBrent(f, 0, 2.9, 10, 1e-10)
	if !Close(x, 2.5, 1e-7) || math.IsInf(fx, 0) || !interior {
		t.Errorf("x = %v f = %v interior %v, want 2.5", x, fx, interior)
	}
	// +Inf everywhere: no finite point to report.
	_, fx, _ = MinimizeBrent(func(float64) float64 { return math.Inf(1) }, 0, 1, 10, 1e-10)
	if !math.IsInf(fx, 1) {
		t.Errorf("all-Inf f: min %v", fx)
	}
}

func TestDescendInt(t *testing.T) {
	f := func(k int) float64 { d := float64(k) - 17.3; return d * d }
	for _, start := range []int{1, 5, 17, 18, 40, 1000} {
		calls := 0
		k, fk := DescendInt(func(k int) float64 { calls++; return f(k) }, start, 1, 1000)
		if k != 17 || !Close(fk, 0.09, 1e-12) {
			t.Errorf("start %d: argmin %d (f %v), want 17", start, k, fk)
		}
		// Every point between start and the minimum, plus one each side.
		if d := max(start-17, 17-start); calls > d+3 {
			t.Errorf("start %d: %d evaluations", start, calls)
		}
	}
}

func TestDescendIntBounds(t *testing.T) {
	up := func(k int) float64 { return float64(k) }
	if k, _ := DescendInt(up, 1, 1, 10); k != 1 {
		t.Errorf("start at lo, minimum at lo: %d", k)
	}
	if k, _ := DescendInt(up, 10, 1, 10); k != 1 {
		t.Errorf("start at hi, minimum at lo: %d", k)
	}
	down := func(k int) float64 { return -float64(k) }
	if k, _ := DescendInt(down, 1, 1, 10); k != 10 {
		t.Errorf("start at lo, minimum at hi: %d", k)
	}
	if k, _ := DescendInt(down, 10, 1, 10); k != 10 {
		t.Errorf("start at hi, minimum at hi: %d", k)
	}
	// Starts outside the range are clamped; reversed bounds swapped.
	if k, _ := DescendInt(up, -5, 3, 10); k != 3 {
		t.Errorf("start below lo: %d", k)
	}
	if k, _ := DescendInt(down, 99, 10, 3); k != 10 {
		t.Errorf("start above hi, reversed bounds: %d", k)
	}
	if k, _ := DescendInt(up, 4, 4, 4); k != 4 {
		t.Errorf("one-point range: %d", k)
	}
}

func TestDescendIntPlateaus(t *testing.T) {
	// A flat bottom on [7, 13]: the lowest index, from either side, as
	// MinimizeConvexInt returns.
	flat := func(k int) float64 { return math.Max(math.Abs(float64(k)-10), 3) }
	for _, start := range []int{1, 7, 10, 13, 20, 30} {
		if k, fk := DescendInt(flat, start, 1, 30); k != 7 || fk != 3 {
			t.Errorf("flat bottom from %d: %d (f %v), want 7", start, k, fk)
		}
	}
	if k, _ := MinimizeConvexInt(flat, 1, 30); k != 7 {
		t.Errorf("MinimizeConvexInt on flat bottom: %d", k)
	}
	// Constant, and +Inf everywhere: lo, as MinimizeConvexInt.
	for _, c := range []float64{2, math.Inf(1)} {
		if k, _ := DescendInt(func(int) float64 { return c }, 6, 1, 9); k != 1 {
			t.Errorf("constant %v: %d, want 1", c, k)
		}
	}
	// A plateau that drops further on the left is crossed.
	step := []float64{1, 5, 5, 5, 6}
	if k, _ := DescendInt(func(k int) float64 { return step[k] }, 3, 0, 4); k != 0 {
		t.Errorf("plateau then drop: %d, want 0", k)
	}
}

func TestDescendIntMatchesConvexTernary(t *testing.T) {
	// On convex functions with many ties (integer-valued, flat runs),
	// descent from any start returns MinimizeConvexInt's argmin: the
	// lowest index among the minimisers.
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		c := rng.IntN(60) + 1
		w := float64(rng.IntN(4))
		s := float64(rng.IntN(3) + 1)
		f := func(k int) float64 { return math.Max(math.Abs(float64(k-c))-w, 0) * s }
		want, _ := MinimizeConvexInt(f, 1, 64)
		got, _ := DescendInt(f, rng.IntN(64)+1, 1, 64)
		if got != want {
			t.Fatalf("c=%d w=%v: descent %d, ternary %d", c, w, got, want)
		}
	}
}

func TestDescendNested(t *testing.T) {
	// Not jointly convex in the sense of a neighbour descent: the best m
	// grows as n falls (m* = 20 - n), so the optimum (3, 17) lies on a
	// diagonal from the seed. The nested descent must reach the nested
	// ternary search's answer.
	f := func(n, m int) float64 {
		dm := float64(m - (20 - n))
		dn := float64(n) - 3.2
		return 4*dm*dm + dn*dn
	}
	ternary := func() (int, int) {
		mAt := func(n int) (int, float64) {
			return MinimizeConvexInt(func(m int) float64 { return f(n, m) }, 1, 40)
		}
		n, _ := MinimizeConvexInt(func(n int) float64 { _, v := mAt(n); return v }, 1, 40)
		m, _ := mAt(n)
		return n, m
	}
	wn, wm := ternary()
	for _, seed := range [][2]int{{5, 15}, {1, 1}, {40, 40}, {3, 17}} {
		n, m, v := DescendNested(f, seed[0], seed[1], 40, 40)
		if n != wn || m != wm || v != f(wn, wm) {
			t.Errorf("seed %v: (%d, %d), nested ternary (%d, %d)", seed, n, m, wn, wm)
		}
	}
	// A fixed dimension (max 1) stays at 1.
	if n, m, _ := DescendNested(f, 1, 9, 1, 40); n != 1 || m != 19 {
		t.Errorf("n fixed: (%d, %d), want (1, 19)", n, m)
	}
}
