package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"respat/internal/obs"
	"respat/internal/service"
)

// cold_exact's shape.
const (
	clients       = 2    // closed-loop clients
	gateSamples   = 200  // responses the correctness gate checks
	coldPerSecond = 2000 // requests pre-generated per second of run

	// window is the width of the windows the timed phase is cut into:
	// about 2300 requests, so each window's p99 has 20 samples beyond it
	// (10 when the machine runs at half speed).
	window = time.Second

	// batchKeys is the size of the batch wall_s times: the stream's
	// first batchKeys requests, 100 of each (platform, family) pair for
	// every seed, so the batch's cost hardly depends on the seed's draws.
	// batchRepeats fresh services each plan it once.
	batchKeys    = 2400
	batchRepeats = 4

	// warmUp is how long the load runs, unmeasured, between set-up and
	// the timed phase: the first seconds under load run slower (heap
	// growth, GC pacing, cold caches) and would otherwise set the tail
	// of the first windows.
	warmUp = 2 * time.Second

	// overheadSlice is how long each service serves per turn when a
	// traced run measures the tracing overhead.
	overheadSlice = 500 * time.Millisecond

	// tracedRequests is how many requests the traced phase that records
	// spans sends: a fixed count rather than a fixed time, so its service
	// counters repeat exactly for a seed, and more than the 4096 plans
	// the cache holds, so evictions run. It takes 4-10 s on the 2-vCPU
	// Xeon machine the benchmark was tuned on.
	tracedRequests = 10_000
)

// serviceConfig is cmd/respatd's default configuration: 16 shards,
// 4096 cached plans, default cold-plan workers and queue, a one-minute
// request budget, and a tracer sampling 1 in sampleEvery requests.
func serviceConfig(sampleEvery int) service.Config {
	return service.Config{
		Shards:         16,
		Capacity:       4096,
		DefaultTimeout: time.Minute,
		Tracer:         obs.New(obs.Config{SampleEvery: sampleEvery, Seed: 1}),
	}
}

// stream is cold_exact's prepared input: the never-repeating request
// stream, pre-generated for the timed phase and generated on demand
// beyond it.
type stream struct {
	seed uint64
	keys []*request
}

func newStream(seed uint64, seconds int) *stream {
	s := &stream{seed: seed, keys: make([]*request, coldPerSecond*seconds)}
	for i := range s.keys {
		q := coldKey(seed, i)
		s.keys[i] = &q
	}
	return s
}

// next returns request seq of the stream.
func (s *stream) next(seq int64) *request {
	if seq < int64(len(s.keys)) {
		return s.keys[seq]
	}
	q := coldKey(s.seed, int(seq))
	return &q
}

// warmUp returns request seq of the warm-up, drawn from far beyond the
// timed stream so every timed request stays a miss.
func (s *stream) warmUp(seq int64) *request {
	q := coldKey(s.seed, 1<<32+int(seq))
	return &q
}

// plan requests every key once through h from `clients` goroutines: the
// wall_s batch.
func plan(h http.Handler, keys []*request) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWriter()
			for i := next.Add(1) - 1; i < int64(len(keys)); i = next.Add(1) - 1 {
				serve(h, w, keys[i])
				if w.code != http.StatusOK {
					errs[c] = fmt.Errorf("batch: status %d: %s", w.code, w.body)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp builds a service with cfg and the request stream, returning the
// time both took.
func setUp(cfg service.Config, o options) (*service.Service, *stream, time.Duration) {
	start := time.Now()
	svc := service.New(cfg)
	s := newStream(o.seed, o.seconds)
	return svc, s, time.Since(start)
}

// load runs the closed loop on h for dur, or for count requests when
// count > 0, sending the requests next gives from sequence number `from`
// on, and keeping keep responses for the gate; seed draws the latency
// and response samples.
func load(h http.Handler, next func(int64) *request, seed uint64, dur, width time.Duration, from, count int64, keep int, rec *recorder) phase {
	return closedLoop{clients: clients, dur: dur, window: width, from: from, count: count, keep: keep / clients, next: next}.run(h, seed, rec)
}

// batchWall times the clients planning the stream's first batchKeys
// requests through a fresh service: the time a batch user waits for a
// fixed set of cold plans. It is measured apart from the timed phase,
// so it is not a rearrangement of qps. It returns the time each of
// batchRepeats services took; a non-2xx answer fails the run.
func batchWall(s *stream) (walls []float64, err error) {
	keys := s.keys[:min(batchKeys, len(s.keys))]
	for range batchRepeats {
		h := service.New(serviceConfig(64)).Handler()
		start := time.Now()
		if err := plan(h, keys); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return walls, nil
}

// runServing runs cold_exact untraced: set-up (repeated for setup_s),
// warm-up, the timed phase, the correctness gate and the wall_s batch.
// A traced run goes to tracedServing instead.
func runServing(o options, out *report) error {
	if o.trace {
		return tracedServing(o, out)
	}
	cfg := serviceConfig(64)
	var svc *service.Service
	var s *stream
	setups, _ := setUpTimes(func() (time.Duration, error) {
		svc, s = nil, nil // the previous set-up is garbage before the next starts
		runtime.GC()
		var d time.Duration
		svc, s, d = setUp(cfg, o)
		return d, nil
	})
	out.logf("set-ups: %v s", setups)
	h := svc.Handler()
	load(h, s.warmUp, o.seed, warmUp, window, 0, 0, 0, nil)
	p := load(h, s.next, o.seed, time.Duration(o.seconds)*time.Second, window, 0, 0, gateSamples, nil)
	out.attempted, out.failed = p.ok+p.failed, p.failed
	out.gate(checkSamples(p.res.items, service.New(serviceConfig(64)).Handler()))

	// Each timing is the lower quartile of its per-window values and qps
	// the upper quartile (see lowerQuartile); peak memory is the median.
	figs := p.figures()
	out.logf("%d requests, %d ok, %d failed in %.3fs", p.ok+p.failed, p.ok, p.failed, p.elapsed.Seconds())
	var qps, p50, p99, cpu, rss []float64
	for i, f := range figs {
		out.logf("  window %d: %.0f req/s, p50 %.4f ms, p99 %.4f ms (%d samples, %d beyond), %.4f cpu ms/req, peak rss %.1f MiB, host steal %.1f%%",
			i, f.qps, f.p50, f.p99, f.samples, f.beyond, f.cpuPerReq, f.rss, 100*f.steal)
		qps, p50 = append(qps, f.qps), append(p50, f.p50)
		cpu, rss = append(cpu, f.cpuPerReq), append(rss, f.rss)
		if f.tailOK {
			p99 = append(p99, f.p99)
		}
	}
	if len(p99) == 0 {
		// Too few requests per window for a window's own p99: use
		// the whole phase's.
		v, beyond, err := p.pooledP99()
		if err != nil {
			return err
		}
		out.logf("no window has %d samples beyond its p99; p99 over the whole phase %.4f ms (%d beyond)", minBeyond, v, beyond)
		p99 = []float64{v}
	}
	out.logf("getrusage peak rss over the whole run: %.1f MiB", peakRSSMiB())

	walls, err := batchWall(s)
	if err != nil {
		return err
	}
	wall := lowerQuartile(walls)
	out.logf("batch of %d cold plans on %d fresh services: %v s; lower quartile %.4f s",
		batchKeys, batchRepeats, walls, wall)
	out.failed += int64(out.wrong)

	m := out.metrics
	m.set("setup_s", median(setups), "s")
	m.set("qps", upperQuartile(qps), "req/s")
	m.set("p50_ms", lowerQuartile(p50), "ms")
	m.set("p99_ms", lowerQuartile(p99), "ms")
	m.set("success_rate", 1-float64(out.failed)/float64(out.attempted), "fraction")
	m.set("cpu_ms_per_req", lowerQuartile(cpu), "ms")
	m.set("peak_rss_mb", median(rss), "MiB")
	m.set("wall_s", wall, "s")
	return nil
}

// tracedServing is a traced run of cold_exact. It measures the tracing
// overhead, then records spans in a phase of its own, then probes the
// layers:
//
//   - Overhead: a service at the default 1-in-64 sampling and one
//     sampling every request take turns of overheadSlice, alternating
//     which goes first, for --seconds/2 in all. Neither records
//     benchmark spans, so the two sides differ only in the tracer.
//     obs.overhead_pct is the median over rounds of the paired qps
//     drop; service.allocs_per_req comes from the default side.
//   - Spans: a fresh fully sampled service serves a fixed count of
//     requests with the benchmark's span recorder on, so its counters
//     repeat exactly; its stage histograms give the stage means.
func tracedServing(o options, out *report) error {
	m := out.metrics
	half := time.Duration(max(o.seconds, 2)) * time.Second / 2

	type side struct {
		h     http.Handler
		s     *stream
		from  int64 // the next sequence number this service has not seen
		qps   []float64
		reqs  int64
		alloc uint64
	}
	var sides [2]*side // default sampling, every request sampled
	for i, every := range []int{64, 1} {
		svc, s, _ := setUp(serviceConfig(every), o)
		sides[i] = &side{h: svc.Handler(), s: s}
		load(sides[i].h, s.warmUp, o.seed, warmUp, window, 0, 0, 0, nil)
	}
	rounds := max(int(half/(2*overheadSlice)), 1)
	var drops []float64
	for r := 0; r < rounds; r++ {
		for k := range 2 {
			sd := sides[(r+k)%2]
			p := load(sd.h, sd.s.next, o.seed, overheadSlice, overheadSlice, sd.from, 0, 0, nil)
			sd.from = p.end
			sd.qps = append(sd.qps, float64(p.ok)/p.elapsed.Seconds())
			sd.reqs += p.ok + p.failed
			sd.alloc += p.allocs
			out.attempted += p.ok + p.failed
			out.failed += p.failed
		}
		drops = append(drops, (sides[0].qps[r]-sides[1].qps[r])/sides[0].qps[r]*100)
	}
	out.logf("tracing overhead: %d rounds; default sampling median %.0f req/s, every request sampled median %.0f req/s; per-round drop %v %%",
		rounds, median(sides[0].qps), median(sides[1].qps), drops)
	m.set("obs.overhead_pct", median(drops), "%")
	m.set("service.allocs_per_req", float64(sides[0].alloc)/float64(sides[0].reqs), "allocs/req")
	sides = [2]*side{} // garbage before the traced phase

	svc, s, _ := setUp(serviceConfig(1), o)
	tr := svc.Tracer()
	var stages0 [obs.StageCount]obs.HistSnapshot
	for st := range stages0 {
		stages0[st] = tr.StageHistogram(obs.Stage(st)).Snapshot()
	}
	c0 := counters(svc)
	traced := load(svc.Handler(), s.next, o.seed, half, window, 0, tracedRequests, gateSamples, out.rec)
	c1 := counters(svc)
	out.attempted += traced.ok + traced.failed
	out.failed += traced.failed
	out.gate(checkSamples(traced.res.items, service.New(serviceConfig(64)).Handler()))
	out.failed += int64(out.wrong)
	if traced.failed > 0 {
		return fmt.Errorf("traced phase: %d of %d requests failed", traced.failed, traced.ok+traced.failed)
	}

	stageMean := func(st obs.Stage) (float64, int64) {
		h := tr.StageHistogram(st).Snapshot()
		n := h.Count - stages0[st].Count
		if n == 0 {
			return 0, 0
		}
		return float64(h.SumNS-stages0[st].SumNS) / float64(n), h.SumNS - stages0[st].SumNS
	}
	var stagedNS int64
	for st := obs.Stage(0); st < obs.StageCount; st++ {
		_, sum := stageMean(st)
		stagedNS += sum
	}
	decode, _ := stageMean(obs.StageDecode)
	lookup, _ := stageMean(obs.StageCacheLookup)
	gateWait, _ := stageMean(obs.StageGateWait)
	cold, _ := stageMean(obs.StageColdCompute)
	handler := out.rec.aggs["service.handler"] // the traced phase served at least one request
	m.set("service.handler_us", float64(handler.total)/float64(handler.count)/1e3, "us")
	m.set("service.handler_self_us", float64(handler.selfNS)/float64(handler.count)/1e3, "us")
	m.set("service.decode_us", decode/1e3, "us")
	m.set("service.cache_lookup_us", lookup/1e3, "us")
	m.set("service.cold_compute_ms", cold/1e6, "ms")
	m.set("service.stage_coverage", float64(stagedNS)/float64(handler.total), "fraction")
	m.set("service.misses", float64(c1.misses-c0.misses), "count")
	m.set("service.evictions", float64(c1.evictions-c0.evictions), "count")
	out.logf("traced phase: %d requests in %.3fs; %d hits, %d misses, %d coalesced, %d evictions, %d shed; mean gate wait %.3f us",
		traced.ok, traced.elapsed.Seconds(), c1.hits-c0.hits, c1.misses-c0.misses, c1.coalesced-c0.coalesced,
		c1.evictions-c0.evictions, c1.shed-c0.shed, gateWait/1e3)

	probes, err := probeLayers(out.rec, s.keys[:min(len(s.keys), 1000)], multilevelProbe(o.seed, multilevelPlans))
	if err != nil {
		return err
	}
	for k, v := range probes {
		m[k] = v
	}
	return nil
}

// serviceCounters is a snapshot of the service's cache and admission
// counters.
type serviceCounters struct{ hits, misses, coalesced, evictions, shed int64 }

func counters(s *service.Service) serviceCounters {
	m := s.Metrics()
	return serviceCounters{
		hits:      m.Hits.Load(),
		misses:    m.Misses.Load(),
		coalesced: m.Coalesced.Load(),
		evictions: m.Evictions.Load(),
		shed:      m.Shed.Load(),
	}
}

// artefactMetric names an artefact's harness.*_s metric.
func artefactMetric(id string) string {
	switch id {
	case "t1":
		return "table1_s"
	case "f6":
		return "fig6_s"
	case "f7":
		return "fig7_s"
	case "f8":
		return "fig8_s"
	default:
		return id + "_s"
	}
}
