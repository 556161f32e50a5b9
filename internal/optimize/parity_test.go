package optimize

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/platform"
)

// parityCase is one (family, costs, rates) configuration of the
// descent-versus-reference sweeps.
type parityCase struct {
	name  string
	kind  core.Kind
	costs core.Costs
	rates core.Rates
}

// rateScales are the factors the Table 2 sweep applies to each rate.
var rateScales = []float64{1e-3, 1e-2, 1e-1, 1, 10, 100}

// tableSweep is every Table 2 platform × family with λf and λs each
// scaled by 1e-3…100: 864 configurations.
func tableSweep() []parityCase {
	var out []parityCase
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			for _, sf := range rateScales {
				for _, ss := range rateScales {
					r := p.Rates
					r.FailStop *= sf
					r.Silent *= ss
					out = append(out, parityCase{fmt.Sprintf("%s/%v/lf×%g/ls×%g", p.Name, k, sf, ss), k, p.Costs, r})
				}
			}
		}
	}
	return out
}

// scattered is n configurations in the style of the service benchmark's
// never-repeating exact-plan stream: configuration i is Table 2
// platform i mod 4 and family i/4 mod 6, with both error rates and the
// disk checkpoint and recovery costs scattered log-uniformly by ×0.5–2
// from a PCG stream keyed by (seed, i).
func scattered(seed uint64, n int) []parityCase {
	scatter := func(r *rand.Rand, x float64) float64 { return x * math.Exp((r.Float64()*2-1)*math.Ln2) }
	plats := platform.Table2()
	out := make([]parityCase, n)
	for i := range out {
		a, b := faults.SplitSeed(seed, 2<<40+uint64(i))
		r := rand.New(rand.NewPCG(a, b))
		p := plats[i%len(plats)]
		c := parityCase{name: fmt.Sprintf("seed%d/%d", seed, i), kind: core.Kinds()[i/len(plats)%len(core.Kinds())], costs: p.Costs, rates: p.Rates}
		c.rates.FailStop = scatter(r, c.rates.FailStop)
		c.rates.Silent = scatter(r, c.rates.Silent)
		c.costs.DiskCkpt = scatter(r, c.costs.DiskCkpt)
		c.costs.DiskRec = scatter(r, c.costs.DiskRec)
		out[i] = c
	}
	return out
}

// degenerate is every Table 2 platform × family with no fail-stop
// errors, no silent errors, and both rates ×1e-6, plus λf alone
// ×1e-6, which drives n̄* into the MaxSplit cap.
func degenerate() []parityCase {
	var out []parityCase
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			for _, d := range []struct {
				name   string
				lf, ls float64
			}{{"lf=0", 0, 1}, {"ls=0", 1, 0}, {"rates×1e-6", 1e-6, 1e-6}, {"lf×1e-6", 1e-6, 1}} {
				r := p.Rates
				r.FailStop *= d.lf
				r.Silent *= d.ls
				out = append(out, parityCase{fmt.Sprintf("%s/%v/%s", p.Name, k, d.name), k, p.Costs, r})
			}
		}
	}
	return out
}

// checkExactParity compares the descent planner with exactReference on
// every configuration. It requires:
//
//   - the same (n, m), except where the reference lost leaves to an
//     evaluator error: its golden section probes W up to 100·W₀, where
//     at high rates the renewal recursion overflows, so it scores those
//     pairs +Inf and returns the best pair it could evaluate. There the
//     descent must find a strictly lower overhead; lost counts these;
//   - an overhead never more than 1e-12 relative above the reference's;
//   - an overhead never more than 1e-12 relative below it when strict.
//     At tiny rates the overhead E/W - 1 is a small difference of
//     numbers near 1, its float64 noise exceeds 1e-12 of it, and the
//     reference's golden section stops up to ~1e-10 relative above the
//     minimum that Brent's method reaches; lower counts these, whose W
//     is then not compared;
//   - W within 1e-5 relative;
//   - the reported overhead is what a fresh evaluator gives at the
//     reported (n, m, W).
func checkExactParity(t *testing.T, cases []parityCase, strict bool) (lost, lower int) {
	t.Helper()
	for _, pc := range cases {
		first, err := analytic.Optimal(pc.kind, pc.costs, pc.rates)
		if err != nil {
			t.Fatalf("%s: first-order plan: %v", pc.name, err)
		}
		ev, err := analytic.NewEvaluator(pc.costs, pc.rates)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactWithEvaluator(ev, first)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		want, diverged, err := exactReference(ev, first)
		if err != nil {
			t.Fatalf("%s: reference: %v", pc.name, err)
		}
		fresh, err := analytic.NewEvaluator(pc.costs, pc.rates)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := fresh.EvalLayoutOverhead(pc.kind, got.N, got.M, got.W); err != nil || h != got.Overhead {
			t.Errorf("%s: reported H* %.17g, evaluator gives %.17g (%v)", pc.name, got.Overhead, h, err)
		}
		if got.N != want.N || got.M != want.M {
			if diverged > 0 && got.Overhead < want.Overhead {
				lost++
				continue
			}
			t.Errorf("%s: (n, m) = (%d, %d), reference (%d, %d)", pc.name, got.N, got.M, want.N, want.M)
			continue
		}
		if got.Overhead > want.Overhead*(1+1e-12) {
			t.Errorf("%s: H* = %.17g above reference %.17g", pc.name, got.Overhead, want.Overhead)
		}
		if got.Overhead < want.Overhead*(1-1e-12) {
			lower++
			if strict {
				t.Errorf("%s: H* = %.17g below reference %.17g", pc.name, got.Overhead, want.Overhead)
			}
			continue
		}
		if rel := math.Abs(got.W-want.W) / want.W; rel > 1e-5 {
			t.Errorf("%s: W* = %.17g, reference %.17g (rel %.2g)", pc.name, got.W, want.W, rel)
		}
	}
	return lost, lower
}

// TestExactParityTableSweep: 13 of the 864 sweep configurations, all at
// λs×100, are ones where the reference lost leaves and settled on a
// worse (n, m) (e.g. Coastal-SSD PDM at λf×0.001: reference n = 99 at
// H = 67.6 %, descent n = 2083 at H = 65.6 %).
func TestExactParityTableSweep(t *testing.T) {
	t.Parallel()
	lost, lower := checkExactParity(t, tableSweep(), false)
	t.Logf("reference lost leaves and (n, m) in %d cases; descent H* lower by > 1e-12 in %d", lost, lower)
	if lost != 13 {
		t.Errorf("%d configurations where the reference's lost leaves changed (n, m), want 13", lost)
	}
}

// TestExactParityScattered holds the descent planner to the reference
// on the service benchmark's kind of configuration, strictly: same
// (n, m) and H* within 1e-12 relative both ways, every time.
func TestExactParityScattered(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 2, 3} {
		checkExactParity(t, scattered(seed, 2400), true)
	}
}

func TestExactParityDegenerate(t *testing.T) {
	t.Parallel()
	lost, lower := checkExactParity(t, degenerate(), false)
	t.Logf("descent H* lower by > 1e-12 in %d of %d cases", lower, len(degenerate()))
	if lost != 0 {
		t.Errorf("%d configurations where the reference's lost leaves changed (n, m), want 0", lost)
	}
}

// TestExactDiagonalOptima pins three benchmark-style Hera PDMV
// configurations (seed 1 #836, seed 3 #620 and #2276 of scattered)
// whose exact optimum is one segment fewer and two chunks more than
// the first-order seed. A descent that moves one coordinate at a time
// from the seed stops at the seed on all three; searching m afresh
// for every n, as the nested descent does, finds the optimum.
func TestExactDiagonalOptima(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                 string
		ckpt, rec, lf, ls    float64
		firstN, firstM, n, m int
	}{
		{"seed1/836", 396.7468879032984, 245.01546645056317, 1.7727738826563422e-06, 5.87127688521491e-06, 7, 16, 6, 18},
		{"seed3/620", 369.64795999955044, 370.14479130834553, 1.6831976858989281e-06, 5.997185427240421e-06, 7, 16, 6, 18},
		{"seed3/2276", 215.19245228350175, 152.6885047200495, 5.695922660236425e-07, 2.459361174067445e-06, 6, 16, 5, 18},
	} {
		c, r := hera.Costs, hera.Rates
		c.DiskCkpt, c.DiskRec = tc.ckpt, tc.rec
		r.FailStop, r.Silent = tc.lf, tc.ls
		first, err := analytic.Optimal(core.PDMV, c, r)
		if err != nil {
			t.Fatal(err)
		}
		if first.N != tc.firstN || first.M != tc.firstM {
			t.Fatalf("%s: first-order seed %d/%d, want %d/%d", tc.name, first.N, first.M, tc.firstN, tc.firstM)
		}
		plan, err := ExactFrom(first, c, r)
		if err != nil {
			t.Fatal(err)
		}
		if plan.N != tc.n || plan.M != tc.m {
			t.Errorf("%s: exact plan %d/%d, want %d/%d", tc.name, plan.N, plan.M, tc.n, tc.m)
		}
	}
}

// TestExactSearchCounts checks the size of the search as exact counts:
// on Hera PDMV the whole-box reference visits 94 (n, m) pairs and makes
// 5640 evaluator probes; the descent must stay within 12 and 300.
func TestExactSearchCounts(t *testing.T) {
	c, r := heraParams(t)
	plan, err := Exact(core.PDMV, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pairs > 12 || plan.Probes > 300 {
		t.Errorf("Hera PDMV search: %d pairs, %d probes; want ≤ 12 and ≤ 300", plan.Pairs, plan.Probes)
	}
	if plan.Pairs < 1 || plan.Probes < plan.Pairs {
		t.Errorf("implausible counts: %d pairs, %d probes", plan.Pairs, plan.Probes)
	}
}
