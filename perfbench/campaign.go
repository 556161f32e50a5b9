package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"respat/internal/core"
	"respat/internal/harness"
	"respat/internal/platform"
)

// campaignOptions sizes paper_campaign between harness.Fast (60
// patterns x 24 runs) and harness.Medium (300 x 150), with the worker
// split cmd/experiments uses by default. At this size Hera's Fig 6
// Monte-Carlo error stays under the 0.5 % agreement bound for every
// seed from 1 to 100 (at most 0.44 %); at 150 x 75 seed 17 gives 0.59 %.
func campaignOptions(seed uint64) harness.Options {
	return harness.Options{Patterns: 250, Runs: 120, Seed: seed, Workers: 1, CampaignWorkers: runtime.GOMAXPROCS(0)}
}

// artefact is one harness call of the campaign: the call
// cmd/experiments makes for that artefact id and, when check is set,
// the check of its rows.
type artefact struct {
	id  string
	run func(o harness.Options, check bool) error
}

// Weak-scaling node counts of Figures 7 and 8, as cmd/experiments
// passes them.
var weakNodes = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}

// Fig 6 agreement bounds. Hera's simulated overheads match the
// first-order prediction within 0.5 % absolute; on the platforms with
// shorter MTBFs (Coastal-SSD above all) the first-order model is off by
// up to about 1.1 %, so every other row is held to the 2 % bound the
// repository's harness tests use.
const (
	fig6HeraGap = 0.005
	fig6AnyGap  = 0.02
)

var artefacts = []artefact{
	{"t1", func(_ harness.Options, check bool) error {
		rows, err := harness.Table1(platform.Table2())
		if err != nil || !check {
			return err
		}
		return checkTable1(rows)
	}},
	{"f6", func(o harness.Options, check bool) error {
		rows, err := harness.Fig6(platform.Table2(), o)
		if err != nil || !check {
			return err
		}
		return checkFig6(rows)
	}},
	{"f7", func(o harness.Options, check bool) error {
		rows, err := harness.WeakScaling(weakNodes, 300, 15, []core.Kind{core.PD, core.PDMV}, o)
		if err != nil || !check {
			return err
		}
		return checkWeak(rows)
	}},
	{"f8", func(o harness.Options, check bool) error {
		rows, err := harness.WeakScaling(weakNodes, 90, 15, []core.Kind{core.PD, core.PDMV}, o)
		if err != nil || !check {
			return err
		}
		return checkWeak(rows)
	}},
	{"ablation", func(o harness.Options, check bool) error {
		rows, err := harness.Ablation(platform.Table2(), core.Kinds(), o.CampaignWorkers)
		if err != nil || !check {
			return err
		}
		if len(rows) != len(platform.Table2())*len(core.Kinds()) {
			return fmt.Errorf("ablation: %d rows", len(rows))
		}
		return nil
	}},
}

// checkTable1 asserts the paper's Hera reference values: PD W*≈2.57 h
// with H*=7.14 %, PDMV n*=6, m*=17 with H*≈3.95 % (both to the two
// decimals Table 1 prints).
func checkTable1(rows []harness.Table1Row) error {
	found := 0
	for _, r := range rows {
		if r.Platform != "Hera" {
			continue
		}
		p := r.Plan
		switch p.Kind {
		case core.PD:
			found++
			if round2(p.W/3600) != 2.57 || round2(p.Overhead*100) != 7.14 {
				return fmt.Errorf("t1: Hera PD W*=%.4fh H*=%.4f%%, want 2.57h 7.14%%", p.W/3600, p.Overhead*100)
			}
		case core.PDMV:
			found++
			if p.N != 6 || p.M != 17 || round2(p.Overhead*100) != 3.95 {
				return fmt.Errorf("t1: Hera PDMV n*=%d m*=%d H*=%.4f%%, want 6, 17, 3.95%%", p.N, p.M, p.Overhead*100)
			}
		}
	}
	if found != 2 {
		return fmt.Errorf("t1: Hera PD and PDMV rows missing")
	}
	return nil
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// checkFig6 asserts that simulated and predicted overheads agree.
func checkFig6(rows []harness.Fig6Row) error {
	if len(rows) != len(platform.Table2())*len(core.Kinds()) {
		return fmt.Errorf("f6: %d rows", len(rows))
	}
	for _, r := range rows {
		gap := math.Abs(r.Simulated - r.Predicted)
		bound := fig6AnyGap
		if r.Platform == "Hera" {
			bound = fig6HeraGap
		}
		if !(gap <= bound) {
			return fmt.Errorf("f6: %s %v simulated %.4f vs predicted %.4f, gap above %.3f", r.Platform, r.Kind, r.Simulated, r.Predicted, bound)
		}
	}
	return nil
}

// checkWeak asserts one finite overhead per (node count, family).
func checkWeak(rows []harness.WeakRow) error {
	if len(rows) != 2*len(weakNodes) {
		return fmt.Errorf("weak scaling: %d rows, want %d", len(rows), 2*len(weakNodes))
	}
	for _, r := range rows {
		if !(r.Simulated > 0) || math.IsInf(r.Simulated, 0) {
			return fmt.Errorf("weak scaling: %d nodes %v overhead %v", r.Nodes, r.Kind, r.Simulated)
		}
	}
	return nil
}

// campaignPass runs every artefact once under a "campaign" root span,
// returning the pass's wall time, each artefact's time and the
// artefacts that failed (or, with check, failed their check).
func campaignPass(o harness.Options, check bool, rec *recorder, id uint64) (wall time.Duration, times []time.Duration, failed []error) {
	start := time.Now()
	spans := []span{{req: id, id: 1, name: "campaign"}}
	for i, a := range artefacts {
		t0 := time.Now()
		err := a.run(o, check)
		t1 := time.Now()
		times = append(times, t1.Sub(t0))
		if err != nil {
			failed = append(failed, err)
		}
		if rec != nil {
			spans = append(spans, span{req: id, id: uint32(i + 2), parent: 1, name: "harness." + a.id, start: rec.at(t0), end: rec.at(t1)})
		}
	}
	wall = time.Since(start)
	if rec != nil {
		spans[0].start, spans[0].end = rec.at(start), rec.at(start.Add(wall))
		rec.add(spans)
	}
	return wall, times, failed
}

// runCampaign runs paper_campaign: set-up is an unchecked Fast-size
// pass (too small for the Fig 6 agreement bound; it warms the
// campaign's code and heap), repeated for setup_s;
// the timed phase repeats full passes until --seconds have elapsed.
// Each artefact is one operation.
func runCampaign(o options, out *report) error {
	setups, err := setUpTimes(func() (time.Duration, error) {
		fast := harness.Fast()
		fast.Seed, fast.Workers, fast.CampaignWorkers = o.seed, 1, runtime.GOMAXPROCS(0)
		wall, _, failed := campaignPass(fast, false, nil, 0)
		if len(failed) > 0 {
			return 0, fmt.Errorf("set-up pass: %w", failed[0])
		}
		return wall, nil
	})
	if err != nil {
		return err
	}

	out.logf("set-ups: %v s", setups)
	opts := campaignOptions(o.seed)
	var walls, mids, slowest, cpus []float64
	perArtefact := make([]time.Duration, len(artefacts))
	stop := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for pass := uint64(1); pass == 1 || time.Now().Before(stop); pass++ {
		cpu0 := cpuTime()
		wall, times, failed := campaignPass(opts, true, out.rec, 1<<52|pass)
		cpus = append(cpus, float64((cpuTime()-cpu0).Nanoseconds())/1e6/float64(len(times)))
		walls = append(walls, wall.Seconds())
		ms := make([]float64, len(times))
		for i, t := range times {
			ms[i] = float64(t.Nanoseconds()) / 1e6
			perArtefact[i] += t
		}
		slices.Sort(ms)
		mids, slowest = append(mids, median(ms)), append(slowest, ms[len(ms)-1])
		out.attempted += int64(len(times))
		out.failed += int64(len(failed))
		out.wrong += len(failed)
		for _, err := range failed {
			out.logf("  wrong: %v", err)
		}
	}
	passes := len(walls)
	out.logf("%d passes of %d artefacts; %d failed checks", passes, len(artefacts), out.failed)
	out.logf("pass times %v s", walls)

	m := out.metrics
	if !o.trace {
		// Per-pass figures, each timing reported as the lower quartile
		// over the passes (see lowerQuartile). With five artefacts a pass
		// has no tail to speak of: p99_ms is the slowest artefact of a
		// pass.
		wall := lowerQuartile(walls)
		m.set("setup_s", median(setups), "s")
		m.set("qps", float64(len(artefacts))/wall, "req/s")
		m.set("p50_ms", lowerQuartile(mids), "ms")
		m.set("p99_ms", lowerQuartile(slowest), "ms")
		m.set("success_rate", 1-float64(out.failed)/float64(out.attempted), "fraction")
		m.set("cpu_ms_per_req", lowerQuartile(cpus), "ms")
		m.set("peak_rss_mb", peakRSSMiB(), "MiB")
		m.set("wall_s", wall, "s")
		return nil
	}

	for i, a := range artefacts {
		m.set("harness."+artefactMetric(a.id), perArtefact[i].Seconds()/float64(passes), "s")
	}
	var probe []*request
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			probe = append(probe, &request{kind: k, costs: p.Costs, rates: p.Rates})
		}
	}
	probes, err := probeLayers(out.rec, probe, multilevelProbe(o.seed, multilevelPlans))
	if err != nil {
		return err
	}
	for k, v := range probes {
		m[k] = v
	}
	return nil
}
