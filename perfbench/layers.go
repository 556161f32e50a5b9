package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/optimize"
	"respat/internal/platform"
	"respat/internal/sim"
)

// Probe sizes: enough calls that each mean rests on hundreds of
// samples, few enough that all probes together take about a second.
const (
	firstOrderCalls = 1000
	probeConfigs    = 50
	probeCalls      = 2000 // EvalLayout calls per configuration
	exactConfigs    = 60
	multilevelPlans = 24
	simRuns         = 1000
)

// probeLayers times direct calls into the planning and simulation
// layers, each under its own span, and returns the per-layer metrics.
// flat holds the workload's flat-family configurations, ml the
// multilevel probe's.
func probeLayers(rec *recorder, flat []*request, ml []multilevel.Params) (metrics, error) {
	m := metrics{}
	var req uint64 = 1 << 56 // probe IDs, apart from request IDs
	nextReq := func() uint64 { req++; return req }

	// analytic: the first-order plan, the seed of every search.
	var firstTotal time.Duration
	for i := 0; i < firstOrderCalls; i++ {
		q := spread(flat, i, firstOrderCalls)
		var err error
		firstTotal += rec.timeCall(nextReq(), "analytic.Optimal", func() { _, err = analytic.Optimal(q.kind, q.costs, q.rates) })
		if err != nil {
			return nil, fmt.Errorf("analytic.Optimal: %w", err)
		}
	}
	m.set("analytic.first_order_us", float64(firstTotal.Nanoseconds())/1e3/firstOrderCalls, "us")

	// analytic: one exact-model probe on a warm evaluator, the unit of
	// work of every exact search. W moves by a few ppm per call so no
	// two probes are identical.
	var probeTotal time.Duration
	for i := 0; i < probeConfigs; i++ {
		q := spread(flat, i, probeConfigs)
		plan, err := analytic.Optimal(q.kind, q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		ev, err := analytic.NewEvaluator(q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		if _, err := ev.EvalLayout(q.kind, plan.N, plan.M, plan.W); err != nil {
			return nil, fmt.Errorf("EvalLayout: %w", err)
		}
		probeTotal += rec.timeCall(nextReq(), "analytic.EvalLayout", func() {
			for j := 0; j < probeCalls; j++ {
				_, err = ev.EvalLayout(q.kind, plan.N, plan.M, plan.W*(1+float64(j)*1e-6))
			}
		})
		if err != nil {
			return nil, fmt.Errorf("EvalLayout: %w", err)
		}
	}
	m.set("analytic.probe_ns", float64(probeTotal.Nanoseconds())/(probeConfigs*probeCalls), "ns")

	// optimize: the exact search on a fresh evaluator, as a cache miss
	// pays it.
	var exactTotal time.Duration
	for i := 0; i < exactConfigs; i++ {
		q := spread(flat, i, exactConfigs)
		id := nextReq()
		start := time.Now()
		first, err := analytic.Optimal(q.kind, q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ev, err := analytic.NewEvaluator(q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := optimize.ExactWithEvaluator(ev, first); err != nil {
			return nil, fmt.Errorf("ExactWithEvaluator: %w", err)
		}
		end := time.Now()
		exactTotal += end.Sub(t2)
		rec.add([]span{
			{req: id, id: 1, name: "optimize.exact_plan", start: rec.at(start), end: rec.at(end)},
			{req: id, id: 2, parent: 1, name: "analytic.Optimal", start: rec.at(start), end: rec.at(t1)},
			{req: id, id: 3, parent: 1, name: "analytic.NewEvaluator", start: rec.at(t1), end: rec.at(t2)},
			{req: id, id: 4, parent: 1, name: "optimize.ExactWithEvaluator", start: rec.at(t2), end: rec.at(end)},
		})
	}
	m.set("optimize.exact_ms", float64(exactTotal.Nanoseconds())/1e6/exactConfigs, "ms")

	// multilevel: a cold plan from a fresh planner, and how much of the
	// search box it evaluated.
	var mlTotal time.Duration
	var evaluated, leaves int
	for i := 0; i < multilevelPlans; i++ {
		p := ml[i%len(ml)]
		id := nextReq()
		start := time.Now()
		pl, err := multilevel.NewPlanner(p)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := pl.PlanCtx(context.Background()); err != nil {
			return nil, fmt.Errorf("multilevel PlanCtx: %w", err)
		}
		end := time.Now()
		mlTotal += end.Sub(start)
		st := pl.Stats()
		evaluated += st.Evaluated
		leaves += st.Leaves
		rec.add([]span{
			{req: id, id: 1, name: "multilevel.plan", start: rec.at(start), end: rec.at(end)},
			{req: id, id: 2, parent: 1, name: "multilevel.NewPlanner", start: rec.at(start), end: rec.at(t1)},
			{req: id, id: 3, parent: 1, name: "multilevel.PlanCtx", start: rec.at(t1), end: rec.at(end)},
		})
	}
	m.set("multilevel.plan_ms", float64(mlTotal.Nanoseconds())/1e6/multilevelPlans, "ms")
	m.set("multilevel.evaluated_per_plan", float64(evaluated)/multilevelPlans, "count")
	m.set("multilevel.leaves_per_plan", float64(leaves)/multilevelPlans, "count")

	runUS, allocs, err := probeSim(rec, nextReq)
	if err != nil {
		return nil, err
	}
	m.set("sim.run_us", runUS, "us")
	m.set("sim.allocs_per_run", allocs, "count")
	return m, nil
}

// spread returns the i-th of n picks spaced evenly over xs (cycling
// when n exceeds len(xs)), so a probe samples every class of a key
// space whose class follows the key's index.
func spread[T any](xs []T, i, n int) T {
	if n <= len(xs) {
		return xs[i*len(xs)/n]
	}
	return xs[i%len(xs)]
}

// probeSim times sim.Run on Hera's PDMV plan, 10 patterns, one run, one
// worker: the configuration of the repository's
// BenchmarkSimulatePattern. Allocations are counted in a second pass
// without span recording by testing.AllocsPerRun, which runs at
// GOMAXPROCS 1 and truncates the mean to a whole number, so the count
// is the simulator's alone and repeats exactly.
func probeSim(rec *recorder, nextReq func() uint64) (runUS, allocsPerRun float64, err error) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		return 0, 0, err
	}
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		return 0, 0, err
	}
	cfg := sim.Config{Pattern: plan.Pattern, Costs: hera.Costs, Rates: hera.Rates, Patterns: 10, Runs: 1, ErrorsInOps: true, Workers: 1}
	var total time.Duration
	for i := 0; i < simRuns; i++ {
		cfg.Seed = uint64(i)
		total += rec.timeCall(nextReq(), "sim.Run", func() { _, err = sim.Run(cfg) })
		if err != nil {
			return 0, 0, fmt.Errorf("sim.Run: %w", err)
		}
	}
	seed := uint64(0)
	allocsPerRun = testing.AllocsPerRun(simRuns, func() {
		cfg.Seed = seed
		seed++
		if _, e := sim.Run(cfg); e != nil && err == nil {
			err = fmt.Errorf("sim.Run: %w", e)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(total.Nanoseconds()) / 1e3 / simRuns, allocsPerRun, nil
}
