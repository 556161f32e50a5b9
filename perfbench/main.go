// Command perfbench is respat's benchmark: it drives the planning
// service (service.New(...).Handler(), in process) and the paper
// campaign (the harness calls cmd/experiments makes) through seeded
// workloads, checks every answer, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold_exact --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics and writes the spans it recorded to
// .bench_build/spans/trace-<workload>-seed<seed>.jsonl. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// procs is the GOMAXPROCS every run uses.
const procs = 2

// workloadNames lists BENCHMARK.json's workloads in the order `all`
// runs them.
var workloadNames = []string{"cold_exact", "paper_campaign"}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"qps", "req/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
	{"success_rate", "fraction"}, {"cpu_ms_per_req", "ms"}, {"peak_rss_mb", "MiB"}, {"wall_s", "s"},
}

// perLayer lists the metrics of a traced run. Every workload reports
// all of them, 0 for a layer it does not drive. Unit "count" marks a
// count that repeats exactly for a given seed.
var perLayer = []metricDef{
	{"service.handler_us", "us"}, {"service.handler_self_us", "us"},
	{"service.decode_us", "us"}, {"service.cache_lookup_us", "us"},
	{"service.cold_compute_ms", "ms"},
	{"service.misses", "count"}, {"service.evictions", "count"},
	{"service.stage_coverage", "fraction"}, {"service.allocs_per_req", "allocs/req"},
	{"analytic.first_order_us", "us"}, {"analytic.probe_ns", "ns"},
	{"optimize.exact_ms", "ms"},
	{"multilevel.plan_ms", "ms"}, {"multilevel.evaluated_per_plan", "count"}, {"multilevel.leaves_per_plan", "count"},
	{"obs.overhead_pct", "%"},
	{"harness.table1_s", "s"}, {"harness.fig6_s", "s"}, {"harness.fig7_s", "s"}, {"harness.fig8_s", "s"}, {"harness.ablation_s", "s"},
	{"sim.run_us", "us"}, {"sim.allocs_per_run", "count"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
var spanDir = filepath.Join(".bench_build", "spans")

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the JSON object of the last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report accumulates one run's outcome.
type report struct {
	attempted int64
	failed    int64
	wrong     int // answers the correctness checks rejected
	metrics   metrics
	rec       *recorder // spans of a traced run
	log       *bufio.Writer
}

func (r *report) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

// gate folds a correctness-gate verdict into the report.
func (r *report) gate(g gateReport) {
	r.wrong += g.wrong
	r.logf("correctness gate: %d responses checked, %d wrong", g.checked, g.wrong)
	for _, n := range g.notes {
		r.logf("  wrong: %s", n)
	}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames)+" or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "length of each timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	// One process at GOMAXPROCS 2 generates and serves the load: the
	// 2-core machine the workloads are sized for.
	runtime.GOMAXPROCS(procs)
	if err := run(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d, need 0 or 1", trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d, need >= 1", o.seconds)
	}
	if o.workload == "all" {
		return runAll(o, trace)
	}
	if o.workload != "cold_exact" && o.workload != "paper_campaign" {
		return fmt.Errorf("unknown workload %q (%v or all)", o.workload, workloadNames)
	}

	log := bufio.NewWriter(os.Stdout)
	defer log.Flush() // the log so far, when the run fails
	out := &report{metrics: metrics{}, log: log}
	mach := thisMachine()
	out.logf("perfbench %s seed=%d seconds=%d trace=%d", o.workload, o.seed, o.seconds, trace)
	out.logf("machine: nproc=%d gomaxprocs=%d cpu=%q go=%s %s", mach.NProc, mach.GOMAXPROCS, mach.CPU, mach.Go, mach.OS)
	if o.trace {
		out.rec = newRecorder(time.Now(), 100_000)
	}
	var err error
	if o.workload == "cold_exact" {
		err = runServing(o, out)
	} else {
		err = runCampaign(o, out)
	}
	if err != nil {
		return err
	}
	if o.trace {
		for _, d := range perLayer {
			if _, ok := out.metrics[d.name]; !ok {
				out.metrics.set(d.name, 0, d.unit) // a layer this workload does not drive
			}
		}
		if err := writeSpans(o, out, mach); err != nil {
			return err
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if len(out.metrics) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(out.metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.metrics[d.name]
		if !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s: measured %+v, defined in %s", d.name, m, d.unit)
		}
		out.logf("  %-32s %16.6g %s", d.name, m.Value, m.Unit)
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	out.logf("%s", b)
	return log.Flush()
}

// writeSpans writes the traced run's spans and prints the self-time
// summary.
func writeSpans(o options, out *report, mach machine) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	header := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "machine": mach,
		"keptSpans": len(out.rec.kept), "droppedSpans": out.rec.dropped, "metrics": out.metrics,
	}
	if err := out.rec.writeFile(path, map[string]any{"run": header}); err != nil {
		return err
	}
	out.logf("spans: %d kept, %d beyond the cap; written to %s", len(out.rec.kept), out.rec.dropped, path)
	out.logf("  %-32s %10s %12s %12s", "span", "count", "total ms", "self ms")
	for _, s := range out.rec.summary() {
		out.logf("  %-32s %10d %12.3f %12.3f", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	return nil
}

// runAll runs every workload, each in a process of its own so peak
// memory is per workload, and prints their results side by side. The
// last line maps each workload to its result.
func runAll(o options, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]result{}
	for _, name := range workloadNames {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stdout.Write(stdout.Bytes())
			return fmt.Errorf("%s: %w", name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: result line: %w", name, err)
		}
		all[name] = res
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	for _, res := range all {
		if !res.Correct {
			return errors.New("a workload gave a wrong answer")
		}
	}
	return nil
}
