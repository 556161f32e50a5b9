package main

import (
	"runtime"
	"testing"
	"time"

	"respat/internal/service"
)

// benchTestConfig is the fixed-seed hermetic campaign CI gates on.
func benchTestConfig() benchConfig {
	return benchConfig{
		inprocess: true,
		mode:      "closed",
		clients:   8,
		requests:  400,
		configs:   24,
		endpoints: []string{"plan", "plan/exact"},
		dist:      "uniform",
		seed:      42,
		timeout:   time.Minute,
		sloP99:    5 * time.Second, // generous: the gate is on errors, not machine speed
		sloErr:    0,
		sloQPS:    1,
	}
}

// TestClosedLoopSLO is the CI SLO assertion: at a fixed seed, the
// in-process closed loop completes every request without a single
// error and the report passes its SLO check.
func TestClosedLoopSLO(t *testing.T) {
	rep, err := run(benchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 400 {
		t.Fatalf("completed %d requests, want 400", rep.Requests)
	}
	if rep.Errors != 0 || rep.ErrorRate != 0 {
		t.Fatalf("%d errors (rate %v): %v", rep.Errors, rep.ErrorRate, rep.Status)
	}
	if rep.Status["200"] != 400 {
		t.Fatalf("status spread %v, want all 200", rep.Status)
	}
	if rep.SLO == nil || !rep.SLO.Pass {
		t.Fatalf("SLO check failed: %+v", rep.SLO)
	}
	if rep.QPS <= 0 || rep.P99Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("implausible latency report: qps=%v p50=%v p99=%v", rep.QPS, rep.P50Ms, rep.P99Ms)
	}
	// The hermetic service samples every request, so the stage
	// attribution must cover the whole campaign.
	app, ok := rep.ServerTiming["app"]
	if !ok {
		t.Fatalf("no app entry in server-timing attribution: %v", rep.ServerTiming)
	}
	if app.Count != 400 {
		t.Fatalf("app timing covered %d of 400 requests", app.Count)
	}
	if app.MeanMs < 0 || app.TotalMs < app.MeanMs && app.Count > 1 {
		t.Fatalf("implausible app timing: %+v", app)
	}
	if _, ok := rep.ServerTiming["decode"]; !ok {
		t.Fatalf("no decode stage in server-timing attribution: %v", rep.ServerTiming)
	}
	// Every cold computation's singleflight is attributed: its leader
	// reports a flight_wait span before the gate ("spawn") and one after
	// the compute ("handoff"), so flight_wait entries are at least twice
	// the cold_compute ones.
	cold, flight := rep.ServerTiming["cold_compute"], rep.ServerTiming["flight_wait"]
	if cold.Count == 0 || flight.Count < 2*cold.Count {
		t.Fatalf("%d flight_wait entries for %d cold computes: %v", flight.Count, cold.Count, rep.ServerTiming)
	}
	var staged float64
	for name, st := range rep.ServerTiming {
		if name != "app" {
			staged += st.TotalMs
		}
	}
	t.Logf("named stages cover %.3f of app time", staged/app.TotalMs)
}

// TestParseServerTiming pins the header subset respatd emits.
func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("app;dur=12.345, decode;dur=0.01, cache_lookup;dur=0")
	want := []stageTiming{{"app", 12.345}, {"decode", 0.01}, {"cache_lookup", 0}}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if parseServerTiming("") != nil {
		t.Fatal("empty header should parse to nil")
	}
	// Malformed entries are skipped, valid ones kept.
	got = parseServerTiming("bad, alsobad;x=1, ok;dur=2.5, neg;dur=-1")
	if len(got) != 1 || got[0] != (stageTiming{"ok", 2.5}) {
		t.Fatalf("malformed header parsed to %v", got)
	}
}

// TestSynthesizeDeterministic pins the workload to the seed: same
// seed, same request sequence; different seed, different key space.
func TestSynthesizeDeterministic(t *testing.T) {
	cfg := benchTestConfig()
	a, err := synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != cfg.configs*len(cfg.endpoints) {
		t.Fatalf("synthesized %d and %d items, want %d", len(a), len(b), cfg.configs*len(cfg.endpoints))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs across identical seeds", i)
		}
	}
	cfg.seed++
	c, err := synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed does not influence the synthesized key space")
	}
}

// TestOpenLoop exercises the Poisson arrival path briefly: arrivals
// are either completed or dropped by the inflight cap, never lost.
func TestOpenLoop(t *testing.T) {
	cfg := benchTestConfig()
	cfg.mode = "open"
	cfg.rate = 4000
	cfg.duration = 150 * time.Millisecond
	cfg.clients = 4
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop completed no requests")
	}
	var counted int64
	for _, n := range rep.Status {
		counted += n
	}
	if counted != rep.Requests {
		t.Fatalf("status counts sum to %d, requests %d", counted, rep.Requests)
	}
}

// TestZipfPicker sanity-checks the popularity curve: the hottest key
// dominates a uniform share.
func TestZipfPicker(t *testing.T) {
	pick, err := picker("zipf", 50, rng(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 50)
	for i := 0; i < 20000; i++ {
		counts[pick()]++
	}
	if counts[0] <= 20000/50 {
		t.Fatalf("hottest key drew %d of 20000, no hotter than uniform", counts[0])
	}
	if _, err := picker("nope", 3, rng(1, 1)); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// TestClientPoolNoLeak asserts the client pools wind down completely
// after both loop modes (run with -race in CI).
func TestClientPoolNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := service.New(service.Config{}).Handler()

	closed := benchTestConfig()
	closed.handler = h
	closed.inprocess = false
	if _, err := run(closed); err != nil {
		t.Fatal(err)
	}
	open := benchTestConfig()
	open.handler = h
	open.inprocess = false
	open.mode = "open"
	open.rate = 2000
	open.duration = 100 * time.Millisecond
	if _, err := run(open); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
	}
}
