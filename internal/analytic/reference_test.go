package analytic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/platform"
	"respat/internal/xmath"
)

// optimalReference is Optimal as it was before the descent: the best
// rounding candidate, then a "robustness net" of nested convex ternary
// searches (xmath.MinimizeConvexInt) over the whole box [1, MaxSplit]²,
// kept if it is strictly better. It is kept, test-only, as the oracle
// the descent must match.
func optimalReference(k core.Kind, c core.Costs, r core.Rates) (n, m int) {
	nbar, mbar := RationalNM(k, c, r)
	nCands, mCands := []int{1}, []int{1}
	if k.MultiSegment() {
		nCands = intCandidates(nbar)
	}
	if k.MultiChunk() {
		mCands = intCandidates(mbar)
	}
	bestF := math.Inf(1)
	for _, cn := range nCands {
		for _, cm := range mCands {
			if f := product(k, c, r, cn, cm); f < bestF {
				n, m, bestF = cn, cm, f
			}
		}
	}
	nGrid, mGrid := 1, 1
	if k.MultiSegment() && k.MultiChunk() {
		mAt := func(n int) (int, float64) {
			return xmath.MinimizeConvexInt(func(m int) float64 { return product(k, c, r, n, m) }, 1, MaxSplit)
		}
		nGrid, _ = xmath.MinimizeConvexInt(func(n int) float64 { _, f := mAt(n); return f }, 1, MaxSplit)
		mGrid, _ = mAt(nGrid)
	} else if k.MultiSegment() {
		nGrid, _ = xmath.MinimizeConvexInt(func(n int) float64 { return product(k, c, r, n, 1) }, 1, MaxSplit)
	} else if k.MultiChunk() {
		mGrid, _ = xmath.MinimizeConvexInt(func(m int) float64 { return product(k, c, r, 1, m) }, 1, MaxSplit)
	}
	if f := product(k, c, r, nGrid, mGrid); f < bestF {
		n, m = nGrid, mGrid
	}
	return n, m
}

// sweepCase is one configuration of the parity sweeps.
type sweepCase struct {
	name   string
	kind   core.Kind
	costs  core.Costs
	rates  core.Rates
	sf, ss float64 // the rate scales of the Table 2 sweep
}

// tableSweep is every Table 2 platform × family with λf and λs each
// scaled by 1e-3…100: 864 configurations.
func tableSweep() []sweepCase {
	scales := []float64{1e-3, 1e-2, 1e-1, 1, 10, 100}
	var out []sweepCase
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			for _, sf := range scales {
				for _, ss := range scales {
					r := p.Rates
					r.FailStop *= sf
					r.Silent *= ss
					out = append(out, sweepCase{fmt.Sprintf("%s/%v/lf×%g/ls×%g", p.Name, k, sf, ss), k, p.Costs, r, sf, ss})
				}
			}
		}
	}
	return out
}

// scatteredSweep is n configurations in the style of the service
// benchmark's exact-plan stream: Table 2 platform i mod 4, family
// i/4 mod 6, both rates and the disk checkpoint and recovery costs
// scattered log-uniformly by ×0.5–2 from a PCG stream keyed by (seed, i).
func scatteredSweep(seed uint64, n int) []sweepCase {
	scatter := func(r *rand.Rand, x float64) float64 { return x * math.Exp((r.Float64()*2-1)*math.Ln2) }
	plats := platform.Table2()
	out := make([]sweepCase, n)
	for i := range out {
		a, b := faults.SplitSeed(seed, 2<<40+uint64(i))
		r := rand.New(rand.NewPCG(a, b))
		p := plats[i%len(plats)]
		c := sweepCase{name: fmt.Sprintf("seed%d/%d", seed, i), kind: core.Kinds()[i/len(plats)%len(core.Kinds())], costs: p.Costs, rates: p.Rates}
		c.rates.FailStop = scatter(r, c.rates.FailStop)
		c.rates.Silent = scatter(r, c.rates.Silent)
		c.costs.DiskCkpt = scatter(r, c.costs.DiskCkpt)
		c.costs.DiskRec = scatter(r, c.costs.DiskRec)
		out[i] = c
	}
	return out
}

// degenerateSweep is every Table 2 platform × family with λf = 0,
// λs = 0, both rates ×1e-6, and λf alone ×1e-6.
func degenerateSweep() []sweepCase {
	var out []sweepCase
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			for _, d := range [][2]float64{{0, 1}, {1, 0}, {1e-6, 1e-6}, {1e-6, 1}} {
				r := p.Rates
				r.FailStop *= d[0]
				r.Silent *= d[1]
				out = append(out, sweepCase{fmt.Sprintf("%s/%v/lf×%g/ls×%g", p.Name, k, d[0], d[1]), k, p.Costs, r, d[0], d[1]})
			}
		}
	}
	return out
}

// TestOptimalMatchesReference holds the descent to the whole-box
// reference: identical (n, m) on the Table 2 sweep, three seeds of
// benchmark-style configurations and the degenerate cases. W* and H*
// are closed forms of (n, m), so they then agree bit for bit.
func TestOptimalMatchesReference(t *testing.T) {
	cases := append(tableSweep(), degenerateSweep()...)
	for _, seed := range []uint64{1, 2, 3} {
		cases = append(cases, scatteredSweep(seed, 2400)...)
	}
	for _, sc := range cases {
		plan, err := Optimal(sc.kind, sc.costs, sc.rates)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		n, m := optimalReference(sc.kind, sc.costs, sc.rates)
		if plan.N != n || plan.M != m {
			t.Errorf("%s: (n, m) = (%d, %d), reference (%d, %d)", sc.name, plan.N, plan.M, n, m)
		}
	}
}

// TestOptimalRoundingMisses pins where the Theorems 2-4 rounding
// candidates are not the integer optimum on the Table 2 sweep: 47 of
// 864 cases, all PDMV. The farthest, 15 chunks from the nearest
// candidate, are those with n̄* < 1 clamped to 1; the others sit at
// most 3 steps away, where rounding one coordinate moved the best
// value of the other (n̄* = 2.43 rounds to 2, and m goes 17 → 20).
func TestOptimalRoundingMisses(t *testing.T) {
	// steps is how far v lies from the nearest rounding candidate of x.
	steps := func(x float64, v int) int {
		d := math.MaxInt
		for _, c := range intCandidates(x) {
			d = min(d, max(c-v, v-c))
		}
		return d
	}
	misses, farthest, farthestUnclamped := 0, 0, 0
	for _, sc := range tableSweep() {
		plan, err := Optimal(sc.kind, sc.costs, sc.rates)
		if err != nil {
			t.Fatal(err)
		}
		d := max(steps(plan.RationalN, plan.N), steps(plan.RationalM, plan.M))
		if d == 0 {
			continue
		}
		misses++
		if sc.kind != core.PDMV {
			t.Errorf("%s: rounding miss outside PDMV: plan %v, n̄*=%v m̄*=%v", sc.name, plan, plan.RationalN, plan.RationalM)
		}
		farthest = max(farthest, d)
		if plan.RationalN > 1 {
			farthestUnclamped = max(farthestUnclamped, d)
		}
	}
	if misses != 47 || farthest != 15 || farthestUnclamped != 3 {
		t.Errorf("%d rounding misses, up to %d steps away (%d with n̄* > 1); want 47, 15 and 3",
			misses, farthest, farthestUnclamped)
	}
}

// TestOptimalHeraPDMVClampedN is the rounding miss of the Optimal
// comment: Hera PDMV at λf×0.1, λs×0.001 has n̄* < 1, clamped to 1, and
// its best rounding candidate is 1/16, but at n = 1 the optimum is
// m = 10.
func TestOptimalHeraPDMVClampedN(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	r := hera.Rates
	r.FailStop *= 0.1
	r.Silent *= 0.001
	plan, err := Optimal(core.PDMV, hera.Costs, r)
	if err != nil {
		t.Fatal(err)
	}
	if plan.RationalN != 1 || math.Floor(plan.RationalM) != 16 {
		t.Fatalf("n̄*=%v m̄*=%v, want n̄* clamped to 1 and m̄* in (16, 17)", plan.RationalN, plan.RationalM)
	}
	f10, f16, f17 := product(core.PDMV, hera.Costs, r, 1, 10), product(core.PDMV, hera.Costs, r, 1, 16), product(core.PDMV, hera.Costs, r, 1, 17)
	if f16 >= f17 {
		t.Errorf("best rounding candidate is 1/17, not 1/16")
	}
	if plan.N != 1 || plan.M != 10 || f10 >= f16 {
		t.Errorf("plan %d/%d (oef·orw %v at 1/10, %v at 1/16), want 1/10", plan.N, plan.M, f10, f16)
	}
}
