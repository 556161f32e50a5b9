package sim

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"time"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/platform"
)

// This file keeps the stepwise executor that runPattern replaced as a
// test-only reference: it steps every chunk, verification and
// checkpoint of the schedule one at a time. The skip-ahead executor
// must reproduce its trajectories — identical Counters — and its
// per-run elapsed time within parityTol relative. The two differ only
// in how clean stretches are summed: a jump adds one prefix-table
// difference where the reference adds each action to the running
// clock, so they agree to rounding, not to the bit.
//
// The overhead (elapsed-work)/work is held to parityTol absolute, not
// relative. Its relative deviation is the elapsed one times
// (1+H)/H, and at small H the reference's own rounding exceeds 1e-10
// of H: on Coastal PDMV at λf×0.01, λs×3 (14,701 actions per pattern,
// H ≈ 1.3 %) the reference drifts 5.4e-4 s from the exact sum over 50
// patterns, 1.2e-9 of H, while the jump drifts 6e-6 s
// (TestSkipAheadSumsMoreAccurately).

// parityTol is the stated tolerance between the skip-ahead executor
// and the stepwise reference: relative on per-run elapsed time and
// event times, absolute on per-run overhead. The sweep measures at
// most ~1.5e-11 on either.
const parityTol = 1e-10

// runPatternStepwise is the executor's pattern loop before the jump:
// one action per iteration, clean or not.
func (e *executor) runPatternStepwise() {
	i := 0
	for i < len(e.plan.sched) {
		a := e.plan.sched[i]
		e.curSeg = a.Segment
		switch a.Op {
		case core.OpChunk:
			if e.chunk(a.Work) == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			e.emit(EvOpDone, core.OpChunk)
		case core.OpPartVer:
			res, detected := e.verify(core.OpPartVer, e.cfg.Costs.PartVer, e.cfg.Costs.Recall, &e.cnt.PartVerifs, &e.cnt.DetectByPart)
			if res == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			if detected {
				if e.memRecovery() == opFailStop {
					i = 0
				} else {
					i = e.plan.segStart[a.Segment]
				}
				continue
			}
		case core.OpGuarVer:
			res, detected := e.verify(core.OpGuarVer, e.cfg.Costs.GuarVer, 1, &e.cnt.GuarVerifs, &e.cnt.DetectByGuar)
			if res == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			if detected {
				if e.memRecovery() == opFailStop {
					i = 0
				} else {
					i = e.plan.segStart[a.Segment]
				}
				continue
			}
		case core.OpMemCkpt:
			if e.protectedOp(e.cfg.Costs.MemCkpt) == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			e.cnt.MemCkpts++
			e.emit(EvOpDone, core.OpMemCkpt)
		case core.OpDisk:
			if e.protectedOp(e.cfg.Costs.DiskCkpt) == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			e.cnt.DiskCkpts++
			e.emit(EvOpDone, core.OpDisk)
		}
		i++
	}
}

// runAllStepwise is runAll over runPatternStepwise.
func (e *executor) runAllStepwise() (Counters, float64) {
	for p := 0; p < e.cfg.Patterns; p++ {
		e.patIdx = p
		e.runPatternStepwise()
		e.emit(EvPatternDone, core.OpDisk)
	}
	return e.cnt, e.now
}

// traceOneStepwise is TraceOne over the stepwise reference.
func traceOneStepwise(cfg Config, run int) ([]Event, Counters) {
	cfg.Runs = 1
	ex := newExecutor(&cfg, newPlan(&cfg))
	ex.reset(run)
	var events []Event
	ex.rec = func(e Event) { events = append(events, e) }
	cnt, _ := ex.runAllStepwise()
	return events, cnt
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// parityReport accumulates a parity comparison over many campaigns.
type parityReport struct {
	runs, guaranteed int
	maxElapsedRel    float64 // worst relative elapsed-time deviation
	maxOverheadAbs   float64 // worst absolute overhead deviation
	maxOverheadRel   float64 // worst relative overhead deviation (logged only)
	errors           int64   // fail-stop and silent errors struck, over all runs
	diverged         []string
}

// compare replays every run of cfg with both executors and records the
// deviations. A run whose counters differ diverged: some arrival fell
// within rounding of an action boundary and the two executors took
// different branches; it is listed, not compared further.
func (r *parityReport) compare(t *testing.T, name string, cfg Config) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pl := newPlan(&cfg)
	jump, step := newExecutor(&cfg, pl), newExecutor(&cfg, pl)
	work := cfg.Pattern.W * float64(cfg.Patterns)
	if cfg.Pattern.InteriorGuaranteed {
		r.guaranteed++
	}
	for run := 0; run < cfg.Runs; run++ {
		jump.reset(run)
		gotCnt, gotT := jump.runAll()
		step.reset(run)
		wantCnt, wantT := step.runAllStepwise()
		r.runs++
		r.errors += wantCnt.FailStop + wantCnt.Silent
		if gotCnt != wantCnt {
			r.diverged = append(r.diverged, fmt.Sprintf("%s run %d: %+v vs stepwise %+v", name, run, gotCnt, wantCnt))
			continue
		}
		gotH, wantH := (gotT-work)/work, (wantT-work)/work
		dT, dH := relDiff(gotT, wantT), math.Abs(gotH-wantH)
		r.maxElapsedRel = max(r.maxElapsedRel, dT)
		r.maxOverheadAbs = max(r.maxOverheadAbs, dH)
		r.maxOverheadRel = max(r.maxOverheadRel, relDiff(gotH, wantH))
		if dT > parityTol || dH > parityTol {
			t.Errorf("%s run %d: elapsed %v vs stepwise %v (rel %.3g), overhead %v vs %v (abs %.3g); tolerance %g",
				name, run, gotT, wantT, dT, gotH, wantH, dH, parityTol)
		}
	}
}

// paritySweep is the Table 2 × family × rate-scale × ErrorsInOps grid,
// each plan re-optimised at its scaled rates.
func paritySweep(t *testing.T, visit func(name string, cfg Config)) {
	t.Helper()
	seed := uint64(0)
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			for _, ff := range []float64{0.01, 0.3, 1, 3, 10} {
				for _, fs := range []float64{0.01, 1, 3, 10} {
					rates := p.Rates.Scale(ff, fs)
					plan, err := analytic.Optimal(k, p.Costs, rates)
					if err != nil {
						t.Fatal(err)
					}
					for _, inOps := range []bool{false, true} {
						seed++
						visit(fmt.Sprintf("%s/%v/lf×%g/ls×%g/ops=%v", p.Name, k, ff, fs, inOps), Config{
							Pattern: plan.Pattern, Costs: p.Costs, Rates: rates,
							Patterns: 50, Runs: 10, Seed: seed, ErrorsInOps: inOps,
						})
					}
				}
			}
		}
	}
}

// TestSkipAheadMatchesStepwise is the parity contract of the
// skip-ahead executor: over 9,600 runs of the sweep every run has the
// stepwise reference's counters, and elapsed time and overhead within
// parityTol. No run diverges; a divergence would be pinned here by
// count and case, never absorbed by a wider tolerance.
func TestSkipAheadMatchesStepwise(t *testing.T) {
	var r parityReport
	paritySweep(t, func(name string, cfg Config) { r.compare(t, name, cfg) })
	if r.runs != 9600 {
		t.Errorf("sweep ran %d runs, want 9600", r.runs)
	}
	if r.guaranteed == 0 {
		t.Error("sweep has no InteriorGuaranteed pattern")
	}
	if len(r.diverged) != 0 {
		t.Errorf("%d runs diverged from the stepwise reference:\n%v", len(r.diverged), r.diverged)
	}
	t.Logf("%d runs (%d with guaranteed interior verifications): max deviation %.3g relative on elapsed time, %.3g absolute (%.3g relative) on overhead",
		r.runs, r.guaranteed*10, r.maxElapsedRel, r.maxOverheadAbs, r.maxOverheadRel)
}

// TestSkipAheadEdgeCases checks the jump against the reference where
// its exposure arithmetic has special cases: an infinite distance to
// the next arrival (a zero rate), ops that cost nothing, chunk-only
// fail-stop exposure, a non-exponential source, arrivals exactly on an
// action boundary, and dense errors.
func TestSkipAheadEdgeCases(t *testing.T) {
	c := testCosts()
	zero := c
	zero.PartVer, zero.MemCkpt, zero.GuarVer = 0, 0, 0
	pdmv := mustLayout(t, core.PDMV, 2000, 3, 4, c.Recall)
	star := mustLayout(t, core.PDMVStar, 2000, 3, 4, 1)
	pd := mustLayout(t, core.PD, 100, 1, 1, 1)
	weibull := func(run int) faults.Source {
		s1, s2 := faults.SplitSeed(77, uint64(run))
		w, err := faults.NewWeibull(0.7, 5000/math.Gamma(1+1/0.7), s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"lf=0", Config{Pattern: pdmv, Costs: c, Rates: core.Rates{Silent: 2e-4}}},
		{"ls=0", Config{Pattern: pdmv, Costs: c, Rates: core.Rates{FailStop: 2e-4}}},
		{"lf=ls=0", Config{Pattern: pdmv, Costs: c}},
		{"zero-cost ops", Config{Pattern: pdmv, Costs: zero, Rates: core.Rates{FailStop: 2e-4, Silent: 2e-4}}},
		{"zero-cost ops, guaranteed interior", Config{Pattern: star, Costs: zero, Rates: core.Rates{FailStop: 2e-4, Silent: 2e-4}}},
		{"weibull fail-stop", Config{Pattern: pdmv, Costs: c, Rates: core.Rates{Silent: 1e-4}, FailSource: weibull}},
		// An arrival exactly at the end of a chunk's exposure strikes
		// that chunk (distance ≤ exposure), so the jump must stop
		// before it rather than complete it.
		{"fail-stop on a chunk boundary", Config{Pattern: pd, Costs: c, FailSource: traceAt(100), SilentSource: never}},
		{"silent error on a chunk boundary", Config{Pattern: pd, Costs: c, FailSource: never, SilentSource: traceAt(100)}},
	}
	// Dense errors: the Fig 9 corner, Hera weak-scaled to 10^5 nodes at
	// λf×2 and λs×2, where most actions hold an arrival.
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	dense, err := hera.WeakScale(100000)
	if err != nil {
		t.Fatal(err)
	}
	dense = dense.ScaleRates(2, 2)
	for _, k := range []core.Kind{core.PD, core.PDMV} {
		plan, err := analytic.Optimal(k, dense.Costs, dense.Rates)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			cfg  Config
		}{fmt.Sprintf("dense errors %v", k), Config{Pattern: plan.Pattern, Costs: dense.Costs, Rates: dense.Rates}})
	}
	for _, tc := range cases {
		for _, inOps := range []bool{false, true} {
			var r parityReport
			cfg := tc.cfg
			cfg.Patterns, cfg.Runs, cfg.Seed, cfg.ErrorsInOps = 20, 30, 9, inOps
			r.compare(t, fmt.Sprintf("%s/ops=%v", tc.name, inOps), cfg)
			if len(r.diverged) != 0 {
				t.Errorf("%s/ops=%v: %d runs diverged:\n%v", tc.name, inOps, len(r.diverged), r.diverged)
			}
			if hasRates := cfg.FailSource != nil || cfg.Rates.Total() > 0; hasRates == (r.errors == 0) {
				t.Errorf("%s/ops=%v: %d errors struck", tc.name, inOps, r.errors)
			}
		}
	}
}

// TestSkipAheadJobSimReuse replays a sequence of jobs on one JobSim and
// checks each against a fresh stepwise executor: reuse across jobs of
// different seeds and sizes must not leak jump state.
func TestSkipAheadJobSimReuse(t *testing.T) {
	p, err := platform.ByName("Atlas")
	if err != nil {
		t.Fatal(err)
	}
	rates := p.Rates.Scale(3, 3)
	plan, err := analytic.Optimal(core.PDMV, p.Costs, rates)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Pattern: plan.Pattern, Costs: p.Costs, Rates: rates, ErrorsInOps: true}
	js, err := NewJobSim(base)
	if err != nil {
		t.Fatal(err)
	}
	for job, patterns := range []int{5, 40, 1, 17, 40, 3} {
		seed := uint64(100 + job%4) // seeds repeat across jobs of other sizes
		got, gotT, err := js.Run(seed, patterns)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Seed, cfg.Patterns, cfg.Runs = seed, patterns, 1
		ref := newExecutor(&cfg, newPlan(&cfg))
		ref.reset(0)
		want, wantT := ref.runAllStepwise()
		if got != want || relDiff(gotT, wantT) > parityTol {
			t.Errorf("job %d (seed %d, %d patterns): (%+v, %v), stepwise (%+v, %v)", job, seed, patterns, got, gotT, want, wantT)
		}
	}
}

// TestSkipAheadSumsMoreAccurately backs the tolerance note above: on
// an error-free run of the sweep's longest schedule, the jump's elapsed
// time is closer to the exact sum of the action costs than the stepwise
// reference's, whose every action is rounded into a large clock.
func TestSkipAheadSumsMoreAccurately(t *testing.T) {
	p, err := platform.ByName("Coastal")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := analytic.Optimal(core.PDMV, p.Costs, p.Rates.Scale(0.01, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Pattern: plan.Pattern, Costs: p.Costs, Patterns: 50, Runs: 1, FailSource: never, SilentSource: never}
	pl := newPlan(&cfg)
	exact := new(big.Float).SetPrec(256)
	for _, a := range pl.sched {
		cost := map[core.Op]float64{
			core.OpChunk: a.Work, core.OpPartVer: p.Costs.PartVer, core.OpGuarVer: p.Costs.GuarVer,
			core.OpMemCkpt: p.Costs.MemCkpt, core.OpDisk: p.Costs.DiskCkpt,
		}[a.Op]
		exact.Add(exact, big.NewFloat(cost))
	}
	want, _ := exact.Mul(exact, big.NewFloat(float64(cfg.Patterns))).Float64()
	jump, step := newExecutor(&cfg, pl), newExecutor(&cfg, pl)
	jump.reset(0)
	step.reset(0)
	_, gotJump := jump.runAll()
	_, gotStep := step.runAllStepwise()
	errJump, errStep := math.Abs(gotJump-want), math.Abs(gotStep-want)
	t.Logf("%d actions/pattern: exact %.17g, jump off by %.3g s, stepwise by %.3g s", len(pl.sched), want, errJump, errStep)
	if errJump >= errStep {
		t.Errorf("jump error %.3g s not below stepwise error %.3g s", errJump, errStep)
	}
}

// campaignCell is one Monte-Carlo cell of the paper campaign.
type campaignCell struct {
	name string
	cfg  Config
}

// paperCampaignCells returns the Monte-Carlo cells of the paper
// campaign, in harness order and keyed by figure, at the given size:
// Fig 6 (Table 2 × the six families) and the Fig 7 and 8 weak-scaling
// cells (Hera at CD = 300 and 90 s, CM = 15 s, PD and PDMV, 2^8 to
// 2^18 nodes), each on its optimal plan with ErrorsInOps.
func paperCampaignCells(t *testing.T, patterns, runs int) map[string][]campaignCell {
	t.Helper()
	figs := map[string][]campaignCell{}
	add := func(fig, name string, p platform.Platform, k core.Kind) {
		plan, err := analytic.Optimal(k, p.Costs, p.Rates)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Pattern: plan.Pattern, Costs: p.Costs, Rates: p.Rates, Patterns: patterns, Runs: runs, Seed: 1, ErrorsInOps: true}
		figs[fig] = append(figs[fig], campaignCell{fmt.Sprintf("%s/%v", name, k), cfg})
	}
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			add("fig6", p.Name, p, k)
		}
	}
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for fig, cd := range map[string]float64{"fig7": 300, "fig8": 90} {
		base := hera.WithDiskCost(cd).WithMemCost(15)
		for _, nodes := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18} {
			p, err := base.WeakScale(nodes)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []core.Kind{core.PD, core.PDMV} {
				add(fig, fmt.Sprintf("Hera %d nodes", nodes), p, k)
			}
		}
	}
	return figs
}

// TestSkipAheadShareOnCampaignCells measures the property the jump's
// gain depends on — errors rare relative to a pattern's length — as the
// share of completed schedule actions a jump completes, on the
// Monte-Carlo cells of the paper campaign (paperCampaignCells). It
// asserts that the jump completes at least 90 % of every Fig 6 cell's
// actions and logs the per-figure shares.
func TestSkipAheadShareOnCampaignCells(t *testing.T) {
	figs := paperCampaignCells(t, 250, 4)
	for _, fig := range []string{"fig6", "fig7", "fig8"} {
		var skipped, total int64
		minShare, minCell := 1.0, ""
		for _, c := range figs[fig] {
			s, n := skipShare(&c.cfg)
			skipped += s
			total += n
			share := float64(s) / float64(n)
			if share < minShare {
				minShare, minCell = share, c.name
			}
			if fig == "fig6" && share < 0.9 {
				t.Errorf("%s: only %.1f%% of actions skipped", c.name, 100*share)
			}
		}
		t.Logf("%s: %.1f%% of %d completed actions skipped; lowest cell %s at %.1f%%",
			fig, 100*float64(skipped)/float64(total), total, minCell, 100*minShare)
	}
}

// TestCleanEndEvaluations measures the property the interpolated
// search's gain rests on: exposure tests per cleanEnd call on the paper
// campaign's cells, for the binary search and for the interpolated
// search, replaying every jump of the runs. It asserts that the counted
// copy returns cleanEnd's index on every call, and that the
// interpolated search makes fewer tests per call on every figure.
func TestCleanEndEvaluations(t *testing.T) {
	figs := paperCampaignCells(t, 250, 4)
	for _, fig := range []string{"fig6", "fig7", "fig8"} {
		var calls, binary, interp int64
		for _, c := range figs[fig] {
			pl := newPlan(&c.cfg)
			ex := newExecutor(&c.cfg, pl)
			for run := 0; run < c.cfg.Runs; run++ {
				ex.reset(run)
				for p := 0; p < c.cfg.Patterns; p++ {
					for i := 0; i < len(pl.sched); {
						if !ex.corrupted {
							df, ds := ex.fail.next-ex.fail.clock, ex.silent.next-ex.silent.clock
							_, b := pl.cleanEndBinary(i, df, ds)
							j, n := pl.cleanEndCounted(i, df, ds)
							if want := pl.cleanEnd(i, df, ds); j != want {
								t.Fatalf("%s: counted search %d, cleanEnd %d", c.name, j, want)
							}
							calls++
							binary += int64(b)
							interp += int64(n)
							if i = ex.skip(i); i == len(pl.sched) {
								break
							}
						}
						i = ex.step(i)
					}
				}
			}
		}
		perB, perI := float64(binary)/float64(calls), float64(interp)/float64(calls)
		t.Logf("%s: %d calls; exposure tests per call: binary search %.2f, interpolated %.2f", fig, calls, perB, perI)
		if !(perI < perB) {
			t.Errorf("%s: interpolated search makes %.2f tests per call, binary search %.2f", fig, perI, perB)
		}
	}
}

// TestLargestCellShare measures the property the shared run-block pool
// rests on: the largest cell's share of an artefact's single-threaded
// simulation time, at the paper_campaign benchmark's size (250 patterns
// × 120 runs). With cells as the unit of parallelism, a cell holding
// ~45 % of its artefact leaves the other workers idle for most of it.
// It only logs: the shares are timings.
func TestLargestCellShare(t *testing.T) {
	if testing.Short() {
		t.Skip("times every paper campaign cell at benchmark size")
	}
	figs := paperCampaignCells(t, 250, 120)
	for _, fig := range []string{"fig6", "fig7", "fig8"} {
		var total, largest time.Duration
		name := ""
		for _, c := range figs[fig] {
			cfg := c.cfg
			cfg.Workers = 1
			start := time.Now()
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			d := time.Since(start)
			total += d
			if d > largest {
				largest, name = d, c.name
			}
		}
		t.Logf("%s: %v single-threaded; largest cell %s %v (%.0f%%)", fig, total, name, largest, 100*largest.Seconds()/total.Seconds())
	}
}

// skipShare replays every run of cfg through runPattern's loop and
// returns how many schedule actions a jump completed and how many
// completed in all (the op-done events of a traced run).
func skipShare(cfg *Config) (skipped, total int64) {
	pl := newPlan(cfg)
	ex := newExecutor(cfg, pl)
	ex.rec = func(e Event) {
		if e.Kind == EvOpDone {
			total++
		}
	}
	for run := 0; run < cfg.Runs; run++ {
		ex.reset(run)
		for p := 0; p < cfg.Patterns; p++ {
			ex.patIdx = p
			for i := 0; i < len(pl.sched); {
				if !ex.corrupted {
					j := ex.skip(i)
					skipped += int64(j - i)
					if i = j; i == len(pl.sched) {
						break
					}
				}
				i = ex.step(i)
			}
		}
	}
	return skipped, total
}

// cleanEndBinary is cleanEnd before the interpolated search: action i
// alone, then a binary search over [i+1, len(sched)]. evals counts the
// exposure tests it makes.
func (pl *plan) cleanEndBinary(i int, df, ds float64) (j, evals int) {
	pre := pl.pre
	f0, s0 := pre[i].fail, pre[i].silent
	clean := func(k int) bool {
		evals++
		return pre[k].fail-f0 < df && pre[k].silent-s0 < ds
	}
	if !clean(i + 1) {
		return i, evals
	}
	lo, hi := i+1, len(pre)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if clean(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, evals
}

// cleanEndCounted is cleanEnd step for step, counting its exposure
// tests; TestCleanEndEvaluations checks that it returns cleanEnd's
// index on every call it measures.
func (pl *plan) cleanEndCounted(i int, df, ds float64) (j, evals int) {
	pre := pl.pre
	f0, s0 := pre[i].fail, pre[i].silent
	clean := func(k int) bool {
		evals++
		return pre[k].fail-f0 < df && pre[k].silent-s0 < ds
	}
	if !clean(i + 1) {
		return i, evals
	}
	lo, hi := i+1, len(pre)
	g, steps := lo, df*pl.actPerFail
	if s := ds * pl.actPerSilent; s < steps {
		steps = s
	}
	if steps >= float64(hi-1-i) {
		g = hi - 1
	} else if steps > 1 {
		g = i + int(steps)
	}
	if g > lo && !clean(g) {
		hi = g
		for step := 1; hi-step > lo; step <<= 1 {
			if clean(hi - step) {
				lo = hi - step
				break
			}
			hi -= step
		}
	} else {
		lo = g
		for step := 1; lo+step < hi; step <<= 1 {
			if !clean(lo + step) {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if clean(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, evals
}

// TestCleanEndMatchesBinarySearch is the search parity contract: the
// interpolated cleanEnd returns the binary search's index on every
// start index of the optimal plans of all six families on every
// Table 2 platform, with ErrorsInOps on and off and with zero-cost
// operations, for exposure distances at 0, at an exact prefix
// difference, one ulp either side of it, at random and at +Inf.
func TestCleanEndMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	zero := func(c core.Costs) core.Costs {
		c.PartVer, c.GuarVer, c.MemCkpt = 0, 0, 0
		return c
	}
	calls, mismatches := 0, 0
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			plan, err := analytic.Optimal(k, p.Costs, p.Rates)
			if err != nil {
				t.Fatal(err)
			}
			for _, costs := range []core.Costs{p.Costs, zero(p.Costs)} {
				for _, inOps := range []bool{false, true} {
					cfg := Config{Pattern: plan.Pattern, Costs: costs, Rates: p.Rates, ErrorsInOps: inOps}
					pl := newPlan(&cfg)
					n := len(pl.pre) - 1
					// Distances around the exposure of actions i..k-1 for a
					// few k, plus 0, a random one and +Inf.
					dists := func(i int, exposure func(k int) float64) []float64 {
						ds := []float64{0, math.Inf(1), rng.Float64() * 1.2 * (exposure(n) - exposure(i))}
						for _, k := range []int{i + 1, min(i+2, n), i + rng.IntN(n-i+1), n} {
							d := exposure(k) - exposure(i)
							ds = append(ds, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
						}
						return ds
					}
					fail := func(k int) float64 { return pl.pre[k].fail }
					silent := func(k int) float64 { return pl.pre[k].silent }
					for i := 0; i < n; i++ {
						for _, df := range dists(i, fail) {
							for _, ds := range dists(i, silent) {
								want, _ := pl.cleanEndBinary(i, df, ds)
								calls++
								if got := pl.cleanEnd(i, df, ds); got != want {
									if mismatches++; mismatches <= 10 {
										t.Errorf("%s/%v costs %v ErrorsInOps=%v: cleanEnd(%d, %v, %v) = %d, binary search %d",
											p.Name, k, costs, inOps, i, df, ds, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d calls differ", mismatches, calls)
	}
	t.Logf("%d calls, all identical", calls)
}
