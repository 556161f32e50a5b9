package harness

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"respat/internal/core"
	"respat/internal/platform"
)

// quick is smaller than Fast for unit-test latency; experiment shapes
// remain stable because the seeds are fixed. Runs is large enough that
// rare-event assertions (e.g. disk recoveries/day tracking λf) sit
// several Poisson standard deviations inside their tolerance.
func quick() Options { return Options{Patterns: 40, Runs: 48, Seed: 7, CampaignWorkers: 2} }

func TestTable1AllPlatforms(t *testing.T) {
	rows, err := Table1(platform.Table2())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*6 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	// Within each platform, the full pattern never does worse than the
	// base pattern, and the integer plan sits above the closed form.
	byPlatform := map[string]map[core.Kind]Table1Row{}
	for _, r := range rows {
		if byPlatform[r.Platform] == nil {
			byPlatform[r.Platform] = map[core.Kind]Table1Row{}
		}
		byPlatform[r.Platform][r.Plan.Kind] = r
		if r.Plan.Overhead < r.ContinuousOverhead-1e-12 {
			t.Errorf("%s/%v: integer overhead below closed form", r.Platform, r.Plan.Kind)
		}
	}
	for name, kinds := range byPlatform {
		if kinds[core.PDMV].Plan.Overhead > kinds[core.PD].Plan.Overhead+1e-12 {
			t.Errorf("%s: PDMV worse than PD", name)
		}
	}
	out := RenderTable1(rows).String()
	if !strings.Contains(out, "Hera") || !strings.Contains(out, "PDMV") {
		t.Error("rendered table incomplete")
	}
}

func TestTable2Derived(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[0].FailMTBFDays-12.2) > 0.1 {
		t.Errorf("Hera fail-stop MTBF = %v", rows[0].FailMTBFDays)
	}
	out := RenderTable2(rows).String()
	if !strings.Contains(out, "Coastal-SSD") {
		t.Error("rendered table incomplete")
	}
}

func TestFig6ShapesOnHera(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig6([]platform.Platform{hera}, quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	get := func(k core.Kind) Fig6Row {
		for _, r := range rows {
			if r.Kind == k {
				return r
			}
		}
		t.Fatalf("missing %v", k)
		return Fig6Row{}
	}
	// Paper §6.2.2: predicted is slightly optimistic; the gap stays
	// small (<1% absolute at this scale; allow slack for reduced runs).
	for _, r := range rows {
		if r.Simulated < r.Predicted-3*r.SimCI95 {
			t.Errorf("%v: simulated %v below predicted %v", r.Kind, r.Simulated, r.Predicted)
		}
		if gap := math.Abs(r.Simulated - r.Predicted); gap > 0.02 {
			t.Errorf("%v: prediction gap %v too large", r.Kind, gap)
		}
	}
	// Paper §6.2.3: two-level patterns have longer periods.
	if !(get(core.PDM).PeriodHours > get(core.PD).PeriodHours) {
		t.Error("PDM period should exceed PD period")
	}
	if !(get(core.PDMV).PeriodHours > get(core.PDV).PeriodHours) {
		t.Error("PDMV period should exceed PDV period")
	}
	// §6.2.4: partial-verification patterns take many verifications.
	if !(get(core.PDV).VerifsPerHour > 5) {
		t.Errorf("PDV verifs/hour = %v, want >5 (paper: ~13)", get(core.PDV).VerifsPerHour)
	}
	// §6.2.5: disk recoveries/day track the fail-stop rate for every
	// pattern (~0.083 on Hera).
	for _, r := range rows {
		want := hera.Rates.FailStop * platform.SecondsPerDay
		if math.Abs(r.DiskRecsPerDay-want)/want > 0.5 {
			t.Errorf("%v: disk recs/day = %v, want ~%v", r.Kind, r.DiskRecsPerDay, want)
		}
	}
	out := RenderFig6(rows).String()
	if !strings.Contains(out, "PDMV*") {
		t.Error("rendered table incomplete")
	}
}

func TestWeakScalingShapes(t *testing.T) {
	rows, err := WeakScaling([]int{256, 16384}, 300, 15, []core.Kind{core.PD, core.PDMV}, quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	find := func(nodes int, k core.Kind) WeakRow {
		for _, r := range rows {
			if r.Nodes == nodes && r.Kind == k {
				return r
			}
		}
		t.Fatalf("missing %d/%v", nodes, k)
		return WeakRow{}
	}
	// Overheads grow with the node count.
	if !(find(16384, core.PD).Simulated > find(256, core.PD).Simulated) {
		t.Error("PD overhead should grow with nodes")
	}
	if !(find(16384, core.PDMV).Simulated > find(256, core.PDMV).Simulated) {
		t.Error("PDMV overhead should grow with nodes")
	}
	// At scale, the combined pattern wins (Fig 7a).
	if !(find(16384, core.PDMV).Simulated < find(16384, core.PD).Simulated) {
		t.Error("PDMV should beat PD at 16k nodes")
	}
	out := RenderWeakScaling("Figure 7", rows).String()
	if !strings.Contains(out, "16384") {
		t.Error("rendered table incomplete")
	}
}

func TestWeakScalingCheapDiskLowersOverhead(t *testing.T) {
	o := quick()
	expensive, err := WeakScaling([]int{16384}, 300, 15, []core.Kind{core.PD}, o)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := WeakScaling([]int{16384}, 90, 15, []core.Kind{core.PD}, o)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8 vs Figure 7: cheaper disk checkpoints reduce overhead.
	if !(cheap[0].Simulated < expensive[0].Simulated) {
		t.Errorf("CD=90 overhead %v should beat CD=300 %v", cheap[0].Simulated, expensive[0].Simulated)
	}
}

func TestRateSweepShapes(t *testing.T) {
	// Figure 9 shape at reduced scale (10^4 nodes for test latency):
	// increasing the silent rate hurts PD much more than PDMV.
	o := quick()
	pts, err := RateSweep(10000, AxisSilent([]float64{0.5, 2}), []core.Kind{core.PD, core.PDMV}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	find := func(fs float64, k core.Kind) RatePoint {
		for _, p := range pts {
			if p.SilentFactor == fs && p.Kind == k {
				return p
			}
		}
		t.Fatalf("missing %v/%v", fs, k)
		return RatePoint{}
	}
	dPD := find(2, core.PD).Simulated - find(0.5, core.PD).Simulated
	dPDMV := find(2, core.PDMV).Simulated - find(0.5, core.PDMV).Simulated
	if !(dPD > dPDMV) {
		t.Errorf("silent-rate sensitivity: PD +%v should exceed PDMV +%v", dPD, dPDMV)
	}
	// The PD period shrinks as silent errors intensify (Fig 9h).
	if !(find(2, core.PD).PeriodMinutes < find(0.5, core.PD).PeriodMinutes) {
		t.Error("PD period should shrink with the silent rate")
	}
	out := RenderRateSweep("Figure 9", pts).String()
	if !strings.Contains(out, "PDMV") {
		t.Error("rendered table incomplete")
	}
}

func TestGridAndAxes(t *testing.T) {
	g := Grid([]float64{1, 2})
	if len(g) != 4 || g[1] != [2]float64{1, 2} || g[2] != [2]float64{2, 1} {
		t.Errorf("Grid = %v", g)
	}
	af := AxisFail([]float64{0.5, 1.5})
	if len(af) != 2 || af[0] != [2]float64{0.5, 1} || af[1] != [2]float64{1.5, 1} {
		t.Errorf("AxisFail = %v", af)
	}
	as := AxisSilent([]float64{3})
	if len(as) != 1 || as[0] != [2]float64{1, 3} {
		t.Errorf("AxisSilent = %v", as)
	}
}

func TestAblationSmall(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Ablation([]platform.Platform{hera}, []core.Kind{core.PD, core.PDM}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cmp.Regret < -1e-9 || r.Cmp.Regret > 0.01 {
			t.Errorf("%v regret = %v", r.Cmp.Kind, r.Cmp.Regret)
		}
	}
	out := RenderAblation(rows).String()
	if !strings.Contains(out, "regret") {
		t.Error("rendered table incomplete")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Patterns <= 0 || o.Runs <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if f := Fast(); f.Patterns <= 0 || f.Runs <= 0 {
		t.Error("Fast misconfigured")
	}
	if f := Full(); f.Patterns != 1000 || f.Runs != 1000 {
		t.Error("Full should be the paper scale")
	}
}

// TestAblationMatchesWholeBoxSearch compares the ablation artefact with
// testdata/ablation_whole_box.csv, the one the exact planner produced
// when it searched the whole (n, m) box with a golden-section W search.
// The descent planner with Brent's W search must reproduce it except
// in the rounded exact-W* column, which may move by at most 1 s: the
// exact overhead is flat at its minimum, so W* is determined only to
// about 1e-6 relative.
func TestAblationMatchesWholeBoxSearch(t *testing.T) {
	rows, err := Ablation(platform.Table2(), core.Kinds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderAblation(rows).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("testdata", "ablation_whole_box.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, reference %d", len(got), len(want))
	}
	const exactW = 3 // the "W* exact" column
	if want[0][exactW] != "W* exact" {
		t.Fatalf("reference header %v", want[0])
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %v, reference %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] == want[i][j] {
				continue
			}
			if i > 0 && j == exactW {
				g, gerr := strconv.Atoi(got[i][j])
				w, werr := strconv.Atoi(want[i][j])
				if gerr == nil && werr == nil && g-w <= 1 && w-g <= 1 {
					continue
				}
			}
			t.Errorf("row %d (%s %s) column %q: %q, reference %q", i, got[i][0], got[i][1], want[0][j], got[i][j], want[i][j])
		}
	}
}
