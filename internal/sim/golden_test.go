package sim

import (
	"math"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/platform"
)

// simGolden pins the full Result bits of a fixed campaign — the
// Hera-platform PDMV pattern, Patterns:10 Runs:7 Seed:42 ErrorsInOps —
// for any worker count. It was first captured before the Workers==1
// inline fast path landed, to prove that fix kept every statistic and
// counter bit-identical. The skip-ahead executor then moved the last
// hex digits of the three floats with every counter unchanged: a jump
// sums clean stretches from a prefix table instead of action by
// action. TestSkipAheadMatchesStepwise is what justifies the new bits:
// identical counters and per-run elapsed time within parityTol of the
// stepwise executor over 9,600 runs.
var simGolden = struct {
	meanBits, ciBits, wallBits                  uint64
	failStop, silent, diskRecs, memRecs, pv, gv int64
}{
	meanBits: 0x3fa3f188e1a1ff92,
	ciBits:   0x3f932be88937bdf4,
	wallBits: 0x41100f8977a4074b,
	failStop: 2, silent: 3, diskRecs: 2, memRecs: 3, pv: 6847, gv: 426,
}

func TestRunGoldenBits(t *testing.T) {
	pl, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := analytic.Optimal(core.PDMV, pl.Costs, pl.Rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		res, err := Run(Config{
			Pattern:  plan.Pattern,
			Costs:    pl.Costs,
			Rates:    pl.Rates,
			Patterns: 10, Runs: 7, Seed: 42, ErrorsInOps: true,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.Overhead.Mean()); got != simGolden.meanBits {
			t.Errorf("workers=%d: overhead mean bits %x, want %x", workers, got, simGolden.meanBits)
		}
		if got := math.Float64bits(res.Overhead.CI95()); got != simGolden.ciBits {
			t.Errorf("workers=%d: overhead CI bits %x, want %x", workers, got, simGolden.ciBits)
		}
		if got := math.Float64bits(res.WallTime.Mean()); got != simGolden.wallBits {
			t.Errorf("workers=%d: wall-time mean bits %x, want %x", workers, got, simGolden.wallBits)
		}
		if res.Total.FailStop != simGolden.failStop || res.Total.Silent != simGolden.silent ||
			res.Total.DiskRecs != simGolden.diskRecs || res.Total.MemRecs != simGolden.memRecs ||
			res.Total.PartVerifs != simGolden.pv || res.Total.GuarVerifs != simGolden.gv {
			t.Errorf("workers=%d: counters %+v, want %+v", workers, res.Total, simGolden)
		}
	}
}
