package harness

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"respat/internal/core"
	"respat/internal/platform"
)

// poolSizes are the (CampaignWorkers, Workers) pairs the determinism
// tests compare: CampaignWorkers 1, 2 and GOMAXPROCS at one worker per
// cell, then splits of the shared simulation pool including the
// GOMAXPROCS default (0, 0).
func poolSizes() [][2]int {
	return [][2]int{{1, 1}, {2, 1}, {runtime.GOMAXPROCS(0), 1}, {0, 0}, {4, 2}}
}

// TestFig6DeterministicAcrossCampaignWorkers asserts the campaign
// scheduler's core guarantee: for a fixed seed, every cell's row is
// bit-identical regardless of how many cells run concurrently.
func TestFig6DeterministicAcrossCampaignWorkers(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Patterns: 10, Runs: 6, Seed: 11}
	var ref []Fig6Row
	for i, pool := range poolSizes() {
		o.CampaignWorkers, o.Workers = pool[0], pool[1]
		rows, err := Fig6([]platform.Platform{hera}, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Errorf("(CampaignWorkers, Workers)=%v rows differ from sequential", pool)
		}
	}
}

// TestRateSweepDeterministicAcrossCampaignWorkers covers the Figure 9
// driver, whose cells differ in both rate factors and family.
func TestRateSweepDeterministicAcrossCampaignWorkers(t *testing.T) {
	o := Options{Patterns: 8, Runs: 5, Seed: 3}
	pairs := Grid([]float64{0.5, 1.5})
	kinds := []core.Kind{core.PD, core.PDMV}
	var ref []RatePoint
	for i, pool := range poolSizes() {
		o.CampaignWorkers, o.Workers = pool[0], pool[1]
		pts, err := RateSweep(5000, pairs, kinds, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = pts
			continue
		}
		if !reflect.DeepEqual(pts, ref) {
			t.Errorf("(CampaignWorkers, Workers)=%v points differ from sequential", pool)
		}
	}
}

// TestWeakScalingDeterministicAcrossCampaignWorkers covers the
// Figures 7/8 driver.
func TestWeakScalingDeterministicAcrossCampaignWorkers(t *testing.T) {
	o := Options{Patterns: 8, Runs: 5, Seed: 5}
	var ref []WeakRow
	for i, pool := range poolSizes() {
		o.CampaignWorkers, o.Workers = pool[0], pool[1]
		rows, err := WeakScaling([]int{1 << 10, 1 << 12}, 300, 15, []core.Kind{core.PD, core.PDMV}, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Errorf("(CampaignWorkers, Workers)=%v rows differ from sequential", pool)
		}
	}
}

// TestCellSeedsDistinct: distinct cells get decorrelated seeds, and the
// derivation is a pure function of (Seed, index).
func TestCellSeedsDistinct(t *testing.T) {
	o := Options{Seed: 9}
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := o.cellSeed(i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("cells %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
		if s != o.cellSeed(i) {
			t.Fatalf("cellSeed(%d) not deterministic", i)
		}
	}
}

// TestRunCellsReportsFirstErrorInCellOrder: whichever cell fails first
// in wall-clock time, the reported error is the lowest-indexed one,
// matching a sequential driver.
func TestRunCellsReportsFirstErrorInCellOrder(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		err := runCells(8, workers, func(i int) error {
			switch i {
			case 2:
				return errLow
			case 6:
				return errHigh
			default:
				return nil
			}
		})
		if err != errLow {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

// TestRunCellsRunsEveryCellOnce covers the pool bookkeeping.
func TestRunCellsRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [23]atomic.Int32
		if err := runCells(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Errorf("workers=%d: cell %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestSimulatedRowsGoldenBits pins simulated Fig 6 and Fig 7 rows to
// the bits the drivers produced when every cell ran its own sim.Run
// (one goroutine per cell): the shared run-block pool, the cell seeds
// and the row builders must reproduce them at any pool split.
func TestSimulatedRowsGoldenBits(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	fig6 := map[core.Kind][3]uint64{ // Simulated, SimCI95, DiskRecsPerDay
		core.PD:       {0x3fb28b742bf818a3, 0x3f937d5b7f39a363, 0x3fb28c7ecf0aa481},
		core.PDVStar:  {0x3fb2716a86940620, 0x3f943b32ee524953, 0x3fbc7a12408931dd},
		core.PDV:      {0x3fb1254804b44e38, 0x3f97fc57e6c33391, 0x3fb4f51d5a2ed20d},
		core.PDM:      {0x3fa61304dc75e582, 0x3f86685f48845aa4, 0x3fac9d2d7309523c},
		core.PDMVStar: {0x3fab416928d18e4c, 0x3f91363a0f813037, 0x3fbc56cbe9ee7f8e},
		core.PDMV:     {0x3fa1741fa94b2a4b, 0x3f85b7bc14de9011, 0x3fac268620b414b8},
	}
	weak := map[core.Kind][3]uint64{ // Simulated, SimCI95, MemRecsPerPattern
		core.PD:   {0x401c48faecd0a52f, 0x3fe86a9245c141c0, 0x4002eeeeeeeeeeef},
		core.PDMV: {0x4015f9baf0d3f369, 0x3fe0af9c2af0072c, 0x4022888888888889},
	}
	check := func(pool [2]int, what string, k core.Kind, got [3]float64, want [3]uint64) {
		for i := range got {
			if math.Float64bits(got[i]) != want[i] {
				t.Errorf("pool %v %s %v field %d: %#x, want %#x", pool, what, k, i, math.Float64bits(got[i]), want[i])
			}
		}
	}
	for _, pool := range poolSizes() {
		o := Options{Patterns: 20, Runs: 12, Seed: 3, CampaignWorkers: pool[0], Workers: pool[1]}
		rows, err := Fig6([]platform.Platform{hera}, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			check(pool, "fig6", r.Kind, [3]float64{r.Simulated, r.SimCI95, r.DiskRecsPerDay}, fig6[r.Kind])
		}
		wrows, err := WeakScaling([]int{1 << 18}, 300, 15, []core.Kind{core.PD, core.PDMV}, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range wrows {
			check(pool, "weak", r.Kind, [3]float64{r.Simulated, r.SimCI95, r.MemRecsPerPattern}, weak[r.Kind])
		}
	}
}
