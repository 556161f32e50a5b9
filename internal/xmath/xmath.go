// Package xmath provides the small numerical substrate used throughout
// respat: compensated summation, scalar minimisation, convex integer
// search and root finding. All routines are dependency-free and
// deterministic, which keeps the analytic model and the simulator
// reproducible bit-for-bit across runs.
package xmath

import (
	"errors"
	"math"
)

// Eps is the default relative tolerance used by the comparison helpers.
const Eps = 1e-9

// ErrNoBracket is returned by Brent when the supplied interval does not
// bracket a sign change.
var ErrNoBracket = errors.New("xmath: interval does not bracket a root")

// Close reports whether a and b are equal within relative tolerance tol
// (absolute tolerance tol for numbers near zero).
func Close(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= tol
	}
	return diff <= tol*scale
}

// Sum returns the Kahan-Babuška (Neumaier) compensated sum of xs.
// It is accurate to within a couple of ulps even for badly conditioned
// inputs, which matters when accumulating millions of per-operation
// durations in the simulator.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Accumulator is a streaming Neumaier-compensated accumulator.
// The zero value is ready to use.
type Accumulator struct {
	sum  float64
	comp float64
}

// Add accumulates x.
func (a *Accumulator) Add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.comp += (a.sum - t) + x
	} else {
		a.comp += (x - t) + a.sum
	}
	a.sum = t
}

// Value returns the compensated total.
func (a *Accumulator) Value() float64 { return a.sum + a.comp }

// Reset clears the accumulator.
func (a *Accumulator) Reset() { a.sum, a.comp = 0, 0 }

// Expm1Div returns (e^x - 1)/x evaluated stably, with the limit value 1
// at x = 0. It appears in the exact expected-lost-time formula
// E[T_lost] = 1/λ - w/(e^{λw}-1).
func Expm1Div(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Expm1(x) / x
}

const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2

// MinimizeGolden minimises the unimodal function f on [a, b] by
// golden-section search, stopping when the bracket is narrower than tol
// (relative to the bracket magnitude, with an absolute floor).
// It returns the abscissa and the value of the minimum.
func MinimizeGolden(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if b < a {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-10
	}
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol*(math.Abs(a)+math.Abs(b)+1) {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}

const cGold = 1 - invPhi // (3-sqrt(5))/2, the golden step of MinimizeBrent

// MinimizeBrent minimises f on [a, b] by Brent's method: a parabola
// through the three best points so far proposes each step, and a
// golden-section step replaces it whenever the parabola is unreliable
// (outside the bracket, not shrinking fast enough, or NaN because f
// returned +Inf). The search starts from x0, taken as the golden point
// of [a, b] when it lies outside (a, b), and stops when the bracket
// around the best point x is narrower than 4·tol·(|x|+1). It returns
// the abscissa and value of the best point.
//
// interior is false when the bracket never moved off a or b: the
// minimum may lie on that edge or beyond it, and a caller that chose
// [a, b] as a guess should search a wider interval.
func MinimizeBrent(f func(float64) float64, a, x0, b, tol float64) (x, fx float64, interior bool) {
	if b < a {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-10
	}
	a0, b0 := a, b
	x = x0
	if !(x > a && x < b) {
		x = a + cGold*(b-a)
	}
	fx = f(x)
	w, v, fw, fv := x, x, fx, fx
	var d, e float64 // the last step and the one before it
	for iter := 0; iter < 200; iter++ {
		xm := (a + b) / 2
		tol1 := tol * (math.Abs(x) + 1)
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-(b-a)/2 {
			break
		}
		golden := true
		if math.Abs(e) > tol1 {
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			// Written so that a NaN parabola fails the test.
			if math.Abs(p) < math.Abs(q*e/2) && p > q*(a-x) && p < q*(b-x) {
				e, d = d, p/q
				golden = false
				if u := x + d; u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
			}
		}
		if golden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = cGold * e
		}
		u := x + d
		if math.Abs(d) < tol1 {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
			continue
		}
		if u < x {
			a = u
		} else {
			b = u
		}
		if fu <= fw || w == x {
			v, w = w, u
			fv, fw = fw, fu
		} else if fu <= fv || v == x || v == w {
			v, fv = u, fu
		}
	}
	return x, fx, a != a0 && b != b0
}

// DescendInt minimises f over the integers in [lo, hi] by unit steps
// from start (clamped into [lo, hi]): it walks towards a strictly lower
// neighbour until none is lower, trying the left side first, and walks
// left across equal values as well as lower ones. For a convex or
// unimodal f it therefore returns the lowest-index minimiser, the same
// point MinimizeConvexInt returns, after evaluating only the points
// between start and the minimum (plus one on each side). For other f
// the result is a local minimum. Each point is evaluated at most once.
func DescendInt(f func(int) float64, start, lo, hi int) (int, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	x := max(lo, min(start, hi))
	fx := f(x)
	var fl float64
	haveLeft := x > lo
	if haveLeft {
		fl = f(x - 1)
	}
	if x < hi && !(haveLeft && fl <= fx) {
		if fr := f(x + 1); fr < fx {
			x, fx = x+1, fr
			for x < hi {
				fr := f(x + 1)
				if fr >= fx {
					break
				}
				x, fx = x+1, fr
			}
			return x, fx
		}
	}
	for haveLeft && fl <= fx {
		x, fx = x-1, fl
		if haveLeft = x > lo; haveLeft {
			fl = f(x - 1)
		}
	}
	return x, fx
}

// DescendNested minimises f(n, m) over n in [1, nMax] and m in [1, mMax]
// by nested DescendInt from (n0, m0): for each n visited, m descends
// from m0, and n descends on that per-n minimum. This is the nested
// structure of a "convex in m, unimodal in n" search, made local: it
// reaches the minimiser of a nested ternary search over the whole box
// while visiting only the points between the seed and the minimum.
// (A joint descent over the eight neighbours of (n, m) is not
// equivalent: it stops in local minima of functions that are not
// jointly convex.)
func DescendNested(f func(n, m int) float64, n0, m0, nMax, mMax int) (n, m int, fnm float64) {
	bestM := func(n int) (int, float64) {
		return DescendInt(func(m int) float64 { return f(n, m) }, m0, 1, mMax)
	}
	n, _ = DescendInt(func(n int) float64 { _, v := bestM(n); return v }, n0, 1, nMax)
	m, fnm = bestM(n)
	return n, m, fnm
}

// MinimizeConvexInt minimises a convex function f over the integers in
// [lo, hi] by ternary search. It returns the argmin and minimum value.
// For non-convex f the result is a local minimum.
func MinimizeConvexInt(f func(int) float64, lo, hi int) (int, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) <= f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	best, fbest := lo, f(lo)
	for k := lo + 1; k <= hi; k++ {
		if fk := f(k); fk < fbest {
			best, fbest = k, fk
		}
	}
	return best, fbest
}

// IntNeighborhood returns the candidate integer values around the
// rational optimum x, clamped to be at least 1: max(1, floor(x)) and
// ceil(x). This is the rounding rule of Theorems 2-4.
func IntNeighborhood(x float64) []int {
	lo := int(math.Floor(x))
	if lo < 1 {
		lo = 1
	}
	hi := int(math.Ceil(x))
	if hi < 1 {
		hi = 1
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// ArgminInt evaluates f over candidates and returns the minimising
// candidate and its value. It panics on an empty candidate list.
func ArgminInt(f func(int) float64, candidates []int) (int, float64) {
	if len(candidates) == 0 {
		panic("xmath: ArgminInt with no candidates")
	}
	best := candidates[0]
	fbest := f(best)
	for _, c := range candidates[1:] {
		if fc := f(c); fc < fbest {
			best, fbest = c, fc
		}
	}
	return best, fbest
}

// Brent finds a root of f in [a, b] using the Brent-Dekker method.
// f(a) and f(b) must have opposite signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SqrtRatio returns sqrt(num/den), guarding against a zero denominator
// (returns +Inf) and negative operands (returns NaN), mirroring the
// W* = sqrt(oef/orw) closed form.
func SqrtRatio(num, den float64) float64 {
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
