// Command simulate plans one pattern family for a platform and runs
// the Monte-Carlo validation, printing predicted vs simulated overhead
// and the event rates of Figure 6.
//
// Usage:
//
//	simulate -platform Hera -pattern PDMV -patterns 1000 -runs 100
//	simulate -platform Atlas -pattern PD -workers 4
//
// Parallelism flags follow the repo-wide convention (DESIGN.md §2.3):
// -workers bounds the simulation goroutines of this single campaign
// cell; it defaults to GOMAXPROCS here because one cell is all there
// is (cmd/experiments defaults to 1 and sizes one pool of
// -campaign-workers × -workers goroutines for all its cells).
// Results are bit-identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"

	"respat"
	"respat/internal/platform"
	"respat/internal/report"
	"respat/internal/sim"
)

func main() {
	var (
		platName = flag.String("platform", "Hera", "built-in platform name")
		pattern  = flag.String("pattern", "PDMV", "pattern family")
		patterns = flag.Int("patterns", 200, "pattern instances per run")
		runs     = flag.Int("runs", 100, "Monte-Carlo repetitions")
		seed     = flag.Uint64("seed", 1, "campaign seed")
		workers  = flag.Int("workers", 0, "simulation goroutines in this cell (0 = GOMAXPROCS); matches cmd/experiments -workers")
		nodes    = flag.Int("nodes", 0, "weak-scale the platform to this node count (0 = as measured)")
		traceN   = flag.Int("trace", 0, "print the first N timeline events of run 0")
	)
	flag.Parse()
	if err := run(*platName, *pattern, *patterns, *runs, *seed, *workers, *nodes, *traceN); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(platName, pattern string, patterns, runs int, seed uint64, workers, nodes, traceN int) error {
	p, err := platform.ByName(platName)
	if err != nil {
		return err
	}
	if nodes < 0 {
		return fmt.Errorf("nodes = %d, need >= 0", nodes)
	}
	if nodes > 0 {
		p, err = p.WeakScale(nodes)
		if err != nil {
			return err
		}
	}
	k, err := respat.ParseKind(pattern)
	if err != nil {
		return err
	}
	plan, err := respat.Optimal(k, p.Costs, p.Rates)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %s\n", plan)
	res, err := respat.Simulate(respat.SimConfig{
		Pattern:     plan.Pattern,
		Costs:       p.Costs,
		Rates:       p.Rates,
		Patterns:    patterns,
		Runs:        runs,
		Seed:        seed,
		Workers:     workers,
		ErrorsInOps: true,
	})
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("%s on %s: %d patterns x %d runs", k, p.Name, patterns, runs),
		"metric", "value")
	t.AddRow("predicted overhead", report.Pct(plan.Overhead, 3))
	t.AddRow("simulated overhead", report.Pct(res.Overhead.Mean(), 3)+" ± "+report.Pct(res.Overhead.CI95(), 3))
	t.AddRow("simulated total (days)", report.Fixed(res.TotalTime()/86400, 2))
	t.AddRow("disk ckpts/hour", report.Fixed(res.PerHour(res.Total.DiskCkpts), 3))
	t.AddRow("mem ckpts/hour", report.Fixed(res.PerHour(res.Total.MemCkpts), 3))
	t.AddRow("verifications/hour", report.Fixed(res.PerHour(res.Total.Verifs()), 2))
	t.AddRow("disk recoveries/day", report.Fixed(res.PerDay(res.Total.DiskRecs), 3))
	t.AddRow("mem recoveries/day", report.Fixed(res.PerDay(res.Total.MemRecs), 3))
	t.AddRow("fail-stop errors", report.I64(res.Total.FailStop))
	t.AddRow("silent errors", report.I64(res.Total.Silent))
	t.AddRow("silent masked by crashes", report.I64(res.Total.SilentMasked))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if traceN > 0 {
		events, _, err := sim.TraceOne(sim.Config{
			Pattern: plan.Pattern, Costs: p.Costs, Rates: p.Rates,
			Patterns: patterns, Seed: seed, ErrorsInOps: true,
		}, 0)
		if err != nil {
			return err
		}
		if len(events) > traceN {
			events = events[:traceN]
		}
		fmt.Printf("\ntimeline of run 0 (first %d events):\n", len(events))
		return sim.WriteTimeline(os.Stdout, events)
	}
	return nil
}
