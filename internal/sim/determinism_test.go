package sim

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"respat/internal/core"
	"respat/internal/faults"
)

// TestRunBitIdenticalAcrossWorkerCounts asserts the strong guarantee
// documented on Run: the whole Result — counters, overhead and
// wall-time statistics — is bit-identical for Workers ∈
// {1, 2, GOMAXPROCS}, because random streams derive from (Seed, run)
// alone and per-run statistics are reduced in run order.
func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PDMV, 2000, 2, 3, c.Recall)
	base := Config{
		Pattern: p, Costs: c,
		Rates:    core.Rates{FailStop: 5e-5, Silent: 1e-4},
		Patterns: 10, Runs: 12, Seed: 42, ErrorsInOps: true,
	}
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	var ref Result
	for i, workers := range counts {
		cfg := base
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res != ref {
			t.Errorf("Workers=%d result differs from Workers=%d:\n%+v\nvs\n%+v",
				workers, counts[0], res, ref)
		}
	}
}

// TestRunAllMatchesRun asserts RunAll's contract: every campaign's
// Result — overhead and wall-time samples and counters — is
// bit-identical to Run of that config alone on one worker, for pool
// sizes 1 to 8, with Runs smaller than the pool, Runs not a multiple
// of the block size, campaigns of mixed sizes and a Weibull fail-stop
// source. Short runs are blocked by minBlockPatterns, long ones by
// Runs/(4·workers).
func TestRunAllMatchesRun(t *testing.T) {
	c := testCosts()
	weibull := func(run int) faults.Source {
		s1, s2 := faults.SplitSeed(77, uint64(run))
		w, err := faults.NewWeibull(0.7, 5000/math.Gamma(1+1/0.7), s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	rates := core.Rates{FailStop: 5e-5, Silent: 1e-4}
	cfgs := []Config{
		{Pattern: mustLayout(t, core.PDMV, 2000, 2, 3, c.Recall), Costs: c, Rates: rates, Patterns: 10, Runs: 37, Seed: 42, ErrorsInOps: true},
		{Pattern: mustLayout(t, core.PD, 1500, 1, 1, c.Recall), Costs: c, Rates: rates, Patterns: 6, Runs: 2, Seed: 7},
		{Pattern: mustLayout(t, core.PDV, 3000, 1, 4, c.Recall), Costs: c, Rates: rates, Patterns: 25, Runs: 1, Seed: 9, ErrorsInOps: true},
		{Pattern: mustLayout(t, core.PDMV, 2000, 2, 3, c.Recall), Costs: c, Rates: core.Rates{Silent: 1e-4}, Patterns: 20, Runs: 64, Seed: 5, ErrorsInOps: true, FailSource: weibull},
		{Pattern: mustLayout(t, core.PDM, 2500, 3, 1, c.Recall), Costs: c, Rates: rates, Patterns: 8, Runs: 13, Seed: 3, ErrorsInOps: true},
		// Long enough runs that every pool size splits it into blocks of
		// Runs/(4·workers) runs.
		{Pattern: mustLayout(t, core.PDV, 1500, 1, 2, c.Recall), Costs: c, Rates: rates, Patterns: minBlockPatterns, Runs: 45, Seed: 11, ErrorsInOps: true},
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Workers = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 2, 3, 8} {
		// The whole set, and each config alone on a pool larger than
		// some configs' Runs.
		got, err := RunAll(cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got[i] != want[i] {
				t.Errorf("pool %d: campaign %d differs from Run:\n%+v\nvs\n%+v", workers, i, got[i], want[i])
			}
			alone, err := RunAll(cfgs[i:i+1], workers)
			if err != nil {
				t.Fatal(err)
			}
			if alone[0] != want[i] {
				t.Errorf("pool %d: campaign %d alone differs from Run", workers, i)
			}
		}
	}
}

// TestRunAllErrors checks that RunAll names the first invalid config
// and rejects a negative pool size, and that an empty set is no error.
func TestRunAllErrors(t *testing.T) {
	c := testCosts()
	ok := Config{Pattern: mustLayout(t, core.PD, 1500, 1, 1, c.Recall), Costs: c, Rates: core.Rates{FailStop: 1e-4}, Patterns: 2, Runs: 2}
	bad := ok
	bad.Runs = 0
	if _, err := RunAll([]Config{ok, bad, bad}, 2); err == nil || !strings.Contains(err.Error(), "config 1") {
		t.Errorf("invalid config 1: err = %v", err)
	}
	if _, err := RunAll([]Config{ok}, -1); err == nil {
		t.Error("negative workers accepted")
	}
	if res, err := RunAll(nil, 0); err != nil || len(res) != 0 {
		t.Errorf("empty set: %v, %v", res, err)
	}
}

// TestBlockSize pins how RunAll cuts a campaign into blocks: about
// Runs/(4·workers) runs, but at least minBlockPatterns pattern
// instances.
func TestBlockSize(t *testing.T) {
	for _, c := range []struct{ runs, patterns, workers, want int }{
		{120, 250, 2, 15}, // paper_campaign: 8 blocks per campaign
		{120, 250, 1, 30},
		{150, 300, 2, 18},
		{24, 60, 2, 5}, // harness.Fast: the pattern floor binds
		{8, 30, 2, 9},  // one block for the whole campaign
		{1, 1000, 8, 1},
		{1000, 1000, 64, 3},
	} {
		cfg := Config{Runs: c.runs, Patterns: c.patterns}
		if got := blockSize(&cfg, c.workers); got != c.want {
			t.Errorf("Runs %d Patterns %d workers %d: block of %d runs, want %d", c.runs, c.patterns, c.workers, got, c.want)
		}
	}
}
