package optimize

import (
	"fmt"
	"math"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/xmath"
)

// exactReference is the exact planner as it was before the descent
// search: nested convex ternary searches over the whole box n ≤ 3n*+4,
// m ≤ 3m*+4 (xmath.MinimizeConvexInt), each (n, m) leaf running a
// golden-section search over [W₀/100, 100·W₀] to 1e-10. It is kept,
// test-only, as the oracle the descent planner must match: same
// (n, m), and the same optimum up to the W search's tolerance.
// diverged counts the (n, m) leaves it lost to an evaluator error.
func exactReference(ev *analytic.Evaluator, first analytic.Plan) (plan ExactPlan, diverged int, err error) {
	k, c := first.Kind, ev.Costs()
	maxN, maxM := 1, 1
	if k.MultiSegment() {
		maxN = min(3*first.N+4, analytic.MaxSplit)
	}
	if k.MultiChunk() {
		maxM = min(3*first.M+4, analytic.MaxSplit)
	}
	type eval struct {
		w, h   float64
		probes int
		err    error
	}
	memo := make(map[[2]int]eval)
	at := func(n, m int) eval {
		key := [2]int{n, m}
		if e, ok := memo[key]; ok {
			return e
		}
		w, h, probes, err := optimizeWReference(ev, k, n, m)
		e := eval{w: w, h: h, probes: probes, err: err}
		memo[key] = e
		return e
	}
	bestM := func(n int) (int, eval) {
		m, _ := xmath.MinimizeConvexInt(func(m int) float64 {
			e := at(n, m)
			if e.err != nil {
				return math.Inf(1)
			}
			return e.h
		}, 1, maxM)
		return m, at(n, m)
	}
	n, _ := xmath.MinimizeConvexInt(func(n int) float64 {
		_, e := bestM(n)
		if e.err != nil {
			return math.Inf(1)
		}
		return e.h
	}, 1, maxN)
	m, best := bestM(n)
	if best.err != nil {
		return ExactPlan{}, 0, best.err
	}
	pat, err := core.Layout(k, best.w, n, m, c.Recall)
	if err != nil {
		return ExactPlan{}, 0, err
	}
	probes := 0
	for _, e := range memo {
		probes += e.probes
		if e.err != nil {
			diverged++
		}
	}
	return ExactPlan{Kind: k, N: n, M: m, W: best.w, Overhead: best.h, Pattern: pat,
		Pairs: len(memo), Probes: probes}, diverged, nil
}

// optimizeWReference is the golden-section W search of exactReference.
func optimizeWReference(ev *analytic.Evaluator, k core.Kind, n, m int) (w, overhead float64, probes int, err error) {
	c, r := ev.Costs(), ev.Rates()
	if r.Total() == 0 {
		return 0, 0, 0, analytic.ErrDegenerate
	}
	guess := xmath.SqrtRatio(analytic.EF(k, c, n, m), analytic.RW(k, c, r, n, m))
	if math.IsInf(guess, 1) || guess <= 0 {
		return 0, 0, 0, fmt.Errorf("optimize: no finite period guess for %v", k)
	}
	var evalErr error
	w, overhead = xmath.MinimizeGolden(func(w float64) float64 {
		probes++
		h, err := ev.EvalLayoutOverhead(k, n, m, w)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return h
	}, guess/100, guess*100, 1e-10)
	return w, overhead, probes, evalErr
}
