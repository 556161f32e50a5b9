// Command experiments regenerates every table and figure of the
// paper's evaluation section into an output directory, as aligned-text
// and CSV files. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	experiments -out results -mode fast            # minutes
//	experiments -out results -mode full            # paper scale (hours)
//	experiments -out results -only t1,f6,f9
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each simulation campaign runs all its (platform, family,
// sweep-point) cells on one pool of -campaign-workers × -workers
// goroutines (defaults GOMAXPROCS × 1), claimed in blocks of runs so a
// long cell is shared among them; the planner ablation fans its cells
// over -campaign-workers. Results are bit-identical for any worker
// split. Each artefact logs its wall time
// so regressions are diagnosable without editing code, and
// -cpuprofile/-memprofile capture pprof profiles of the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"respat/internal/core"
	"respat/internal/harness"
	"respat/internal/platform"
	"respat/internal/report"
	"respat/internal/viz"
)

// cli groups the command-line configuration of one invocation.
type cli struct {
	out             string
	mode            string
	only            string
	campaignWorkers int
	simWorkers      int
	cpuProfile      string
	memProfile      string
}

func main() {
	var c cli
	flag.StringVar(&c.out, "out", "results", "output directory")
	flag.StringVar(&c.mode, "mode", "fast", "campaign size: fast | medium | full")
	flag.StringVar(&c.only, "only", "", "comma-separated experiment ids (t1,t2,f6,f7,f8,f9,ablation); empty = all")
	flag.IntVar(&c.campaignWorkers, "campaign-workers", runtime.GOMAXPROCS(0), "simulation pool size is campaign-workers × workers; also the ablation's concurrent cells")
	flag.IntVar(&c.simWorkers, "workers", 1, "simulation pool size is campaign-workers × workers (0 = GOMAXPROCS)")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(c cli) error {
	var opts harness.Options
	switch c.mode {
	case "fast":
		opts = harness.Fast()
	case "medium":
		opts = harness.Medium()
	case "full":
		opts = harness.Full()
	default:
		return fmt.Errorf("unknown mode %q (fast|medium|full)", c.mode)
	}
	opts.CampaignWorkers = c.campaignWorkers
	opts.Workers = c.simWorkers

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	want := map[string]bool{}
	if c.only != "" {
		for _, id := range strings.Split(c.only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	// section runs one artefact under a wall-time log line.
	section := func(id, title string, body func() error) error {
		if !sel(id) {
			return nil
		}
		fmt.Printf("== %s: %s ==\n", strings.ToUpper(id), title)
		start := time.Now()
		if err := body(); err != nil {
			return err
		}
		fmt.Printf("-- %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := section("t1", "Table 1 instantiation", func() error {
		rows, err := harness.Table1(platform.Table2())
		if err != nil {
			return err
		}
		return emit(c.out, "table1", harness.RenderTable1(rows))
	}); err != nil {
		return err
	}
	if err := section("t2", "Table 2 platforms", func() error {
		return emit(c.out, "table2", harness.RenderTable2(harness.Table2()))
	}); err != nil {
		return err
	}
	if err := section("f6", "patterns on real platforms", func() error {
		rows, err := harness.Fig6(platform.Table2(), opts)
		if err != nil {
			return err
		}
		if err := emit(c.out, "fig6", harness.RenderFig6(rows)); err != nil {
			return err
		}
		return emitChart(c.out, "fig6a_hera_plot", harness.Fig6Chart("Hera", rows))
	}); err != nil {
		return err
	}
	both := []core.Kind{core.PD, core.PDMV}
	nodes := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}
	if err := section("f7", "weak scaling, CD=300 CM=15", func() error {
		rows, err := harness.WeakScaling(nodes, 300, 15, both, opts)
		if err != nil {
			return err
		}
		if err := emit(c.out, "fig7", harness.RenderWeakScaling("Figure 7: weak scaling (CD=300, CM=15)", rows)); err != nil {
			return err
		}
		return emitChart(c.out, "fig7a_plot", harness.WeakScalingChart("Figure 7a", rows))
	}); err != nil {
		return err
	}
	if err := section("f8", "weak scaling, CD=90 CM=15", func() error {
		rows, err := harness.WeakScaling(nodes, 90, 15, both, opts)
		if err != nil {
			return err
		}
		if err := emit(c.out, "fig8", harness.RenderWeakScaling("Figure 8: weak scaling (CD=90, CM=15)", rows)); err != nil {
			return err
		}
		return emitChart(c.out, "fig8a_plot", harness.WeakScalingChart("Figure 8a", rows))
	}); err != nil {
		return err
	}
	if err := section("f9", "error-rate sweeps (Hera x 1e5 nodes)", func() error {
		const sweepNodes = 100000 // §6.4: Hera scaled to 10^5 nodes
		factors := []float64{0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0}
		if c.mode == "full" {
			factors = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
		}
		surf, err := harness.RateSweep(sweepNodes, harness.Grid(factors), both, opts)
		if err != nil {
			return err
		}
		if err := emit(c.out, "fig9_surface", harness.RenderRateSweep("Figure 9a-c: overhead surfaces (Hera x 1e5 nodes)", surf)); err != nil {
			return err
		}
		fs, err := harness.RateSweep(sweepNodes, harness.AxisFail(factors), both, opts)
		if err != nil {
			return err
		}
		if err := emit(c.out, "fig9_fail", harness.RenderRateSweep("Figure 9d-g: lambda_f sweep (lambda_s nominal)", fs)); err != nil {
			return err
		}
		if err := emitChart(c.out, "fig9d_plot", harness.RateSweepPeriodChart("Figure 9d", fs, false)); err != nil {
			return err
		}
		ss, err := harness.RateSweep(sweepNodes, harness.AxisSilent(factors), both, opts)
		if err != nil {
			return err
		}
		if err := emit(c.out, "fig9_silent", harness.RenderRateSweep("Figure 9h-k: lambda_s sweep (lambda_f nominal)", ss)); err != nil {
			return err
		}
		if err := emitChart(c.out, "fig9h_plot", harness.RateSweepPeriodChart("Figure 9h", ss, true)); err != nil {
			return err
		}
		return emitChart(c.out, "fig9_overhead_plot", harness.RateSweepOverheadChart("Figure 9a/9b slice", ss, true))
	}); err != nil {
		return err
	}
	if err := section("ablation", "first-order vs exact-model plans", func() error {
		rows, err := harness.Ablation(platform.Table2(), core.Kinds(), opts.CampaignWorkers)
		if err != nil {
			return err
		}
		return emit(c.out, "ablation", harness.RenderAblation(rows))
	}); err != nil {
		return err
	}
	fmt.Println("wrote", c.out)
	return nil
}

// emitChart writes an ASCII chart under dir and echoes it.
func emitChart(dir, name string, c *viz.Chart) error {
	f, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Render(f); err != nil {
		return err
	}
	return c.Render(os.Stdout)
}

// emit writes the table as .txt and .csv under dir and echoes it.
func emit(dir, name string, t *report.Table) error {
	txt, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := t.Render(txt); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	if err := t.WriteCSV(csvf); err != nil {
		return err
	}
	return t.Render(os.Stdout)
}
