package sim

import (
	"strings"
	"testing"

	"respat/internal/core"
)

func TestTraceOneCleanRun(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PDV, 100, 1, 2, 1)
	events, cnt, err := TraceOne(Config{
		Pattern: p, Costs: c, Patterns: 1, Runs: 99, // Runs ignored
		Seed:       1,
		FailSource: never, SilentSource: never,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// chunk, partverif, chunk, guarverif, memckpt, disk, pattern-done.
	wantKinds := []EventKind{EvOpDone, EvOpDone, EvOpDone, EvOpDone, EvOpDone, EvOpDone, EvPatternDone}
	wantOps := []core.Op{core.OpChunk, core.OpPartVer, core.OpChunk, core.OpGuarVer, core.OpMemCkpt, core.OpDisk, core.OpDisk}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events: %v", len(events), events)
	}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.Kind == EvOpDone && e.Op != wantOps[i] {
			t.Errorf("event %d op = %v, want %v", i, e.Op, wantOps[i])
		}
	}
	// Final event time equals the error-free traversal time.
	if got, want := events[len(events)-1].Time, p.ErrorFreeTime(c); got != want {
		t.Errorf("final time %v, want %v", got, want)
	}
	if cnt.DiskCkpts != 1 {
		t.Errorf("counters: %+v", cnt)
	}
}

func TestTraceOneWithErrors(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PD, 100, 1, 1, 1)
	events, cnt, err := TraceOne(Config{
		Pattern: p, Costs: c, Patterns: 1, Seed: 1,
		FailSource:   traceAt(50),
		SilentSource: traceAt(120), // strikes during the replay chunk
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// fail@50, disk-rec, silent during replay, chunk done, guar verif,
	// alarm, mem-rec, replay chunk, guar verif, mem ckpt, disk, done.
	var kinds []EventKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{
		EvFailStop, EvDiskRec, EvSilent, EvOpDone, EvOpDone, EvDetect,
		EvMemRec, EvOpDone, EvOpDone, EvOpDone, EvOpDone, EvPatternDone,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events:\n%v", len(kinds), events)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	if cnt.FailStop != 1 || cnt.Silent != 1 || cnt.MemRecs != 1 || cnt.DiskRecs != 1 {
		t.Errorf("counters: %+v", cnt)
	}
	// Times are monotone non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Errorf("time went backwards at %d: %v -> %v", i, events[i-1].Time, events[i].Time)
		}
	}
	// The skip-ahead timeline is the stepwise reference's: same events
	// in the same order, times within the parity tolerance. The second
	// configuration strikes many patterns, so jumps start and end
	// mid-pattern, mid-segment and right after recoveries.
	checkTraceParity(t, "hand trace", Config{
		Pattern: p, Costs: c, Patterns: 1, Seed: 1,
		FailSource: traceAt(50), SilentSource: traceAt(120),
	})
	// A silent error exactly at the end of the first pattern's chunk
	// corrupts that pattern, not the next one; only the timeline tells
	// the two apart.
	checkTraceParity(t, "silent error on a chunk boundary", Config{
		Pattern: p, Costs: c, Patterns: 2, Seed: 1,
		FailSource: never, SilentSource: traceAt(100),
	})
	checkTraceParity(t, "random errors", Config{
		Pattern: mustLayout(t, core.PDMV, 1500, 3, 4, c.Recall), Costs: c,
		Rates:    core.Rates{FailStop: 2e-4, Silent: 5e-4},
		Patterns: 40, Seed: 8, ErrorsInOps: true,
	})
}

// checkTraceParity compares TraceOne's timeline with the stepwise
// reference's, event by event.
func checkTraceParity(t *testing.T, name string, cfg Config) {
	t.Helper()
	got, gotCnt, err := TraceOne(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCnt := traceOneStepwise(cfg, 0)
	if gotCnt != wantCnt {
		t.Errorf("%s: counters %+v, stepwise %+v", name, gotCnt, wantCnt)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, stepwise %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Op != w.Op || g.Segment != w.Segment || g.Pattern != w.Pattern ||
			relDiff(g.Time, w.Time) > parityTol {
			t.Fatalf("%s: event %d = %v (t=%.17g), stepwise %v (t=%.17g)", name, i, g, g.Time, w, w.Time)
		}
	}
	if gotCnt.FailStop+gotCnt.Silent == 0 {
		t.Errorf("%s: no errors struck; the comparison is vacuous", name)
	}
}

func TestTraceOneInvalidConfig(t *testing.T) {
	if _, _, err := TraceOne(Config{}, 0); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestWriteTimeline(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PD, 100, 1, 1, 1)
	events, _, err := TraceOne(Config{
		Pattern: p, Costs: c, Patterns: 1, Seed: 1,
		FailSource: never, SilentSource: never,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTimeline(&b, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "chunk") || !strings.Contains(out, "committed") {
		t.Errorf("timeline incomplete:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != len(events) {
		t.Errorf("%d lines for %d events", got, len(events))
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvOpDone; k <= EvPatternDone; k++ {
		if strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if EventKind(42).String() != "EventKind(42)" {
		t.Error("unknown kind fallback broken")
	}
}

func TestTracingDoesNotPerturbResults(t *testing.T) {
	// A traced run and an untraced run with identical seeds produce
	// identical counters and times.
	c := testCosts()
	p := mustLayout(t, core.PDMV, 1500, 2, 3, c.Recall)
	cfg := Config{
		Pattern: p, Costs: c,
		Rates:    core.Rates{FailStop: 1e-4, Silent: 2e-4},
		Patterns: 10, Runs: 1, Seed: 33, ErrorsInOps: true,
	}
	events, cnt, err := TraceOne(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != res.Total {
		t.Errorf("traced counters %+v != untraced %+v", cnt, res.Total)
	}
	if len(events) == 0 {
		t.Error("no events recorded")
	}
	if last := events[len(events)-1]; last.Time != res.WallTime.Mean() {
		t.Errorf("traced end time %v != untraced %v", last.Time, res.WallTime.Mean())
	}
}
