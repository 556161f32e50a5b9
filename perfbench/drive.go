package main

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"respat/internal/faults"
)

// cold_exact calls the service's handler in process: no sockets, so the
// figures are the service's own cost plus the benchmark's request
// construction, with no kernel network stack.

var exactURL = &url.URL{Path: exactPath}

// newHTTPRequest builds the POST for q. The header map is nil: the
// handlers only read request headers, and a nil map reads as empty.
func newHTTPRequest(q *request) *http.Request {
	return &http.Request{
		Method:        http.MethodPost,
		URL:           exactURL,
		RequestURI:    exactPath,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Host:          "respatd",
		Body:          io.NopCloser(bytes.NewReader(q.body)),
		ContentLength: int64(len(q.body)),
	}
}

// writer is a reusable in-memory http.ResponseWriter.
type writer struct {
	h    http.Header
	code int
	body []byte
}

func newWriter() *writer { return &writer{h: make(http.Header)} }

func (w *writer) Header() http.Header { return w.h }

func (w *writer) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *writer) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *writer) reset() {
	clear(w.h)
	w.code = 0
	w.body = w.body[:0]
}

// serve runs q through h into w.
func serve(h http.Handler, w *writer, q *request) {
	w.reset()
	h.ServeHTTP(w, newHTTPRequest(q))
}

// sample is one served response kept for the correctness gate.
type sample struct {
	q    *request
	body []byte
}

// reservoir keeps a uniform seeded sample of the responses offered to
// it (Algorithm R).
type reservoir struct {
	r     *rand.Rand
	size  int
	seen  int64
	items []sample
}

func (v *reservoir) offer(q *request, body []byte) {
	v.seen++
	if len(v.items) < v.size {
		v.items = append(v.items, sample{q: q, body: slices.Clone(body)})
		return
	}
	if j := v.r.Int64N(v.seen); j < int64(v.size) {
		v.items[j] = sample{q: q, body: slices.Clone(body)}
	}
}

// samples keeps a uniform random sample of at most max measurements
// (Algorithm R), so memory stays bounded on a fast workload and peak
// RSS does not grow with the request count.
type samples struct {
	r    *rand.Rand
	max  int
	n    int64 // measurements offered
	vals []float64
}

// maxSamples bounds each tally's kept latencies, across all its
// windows; a closed loop's two clients keep up to twice this many
// between them.
const maxSamples = 1 << 17

// newSamples allocates the whole sample up front: a buffer that grew
// during a phase would raise the process's live heap as the phase went
// on, and with the service's heap only a few MiB that would thin out
// its garbage collections and move its latency within the phase.
func newSamples(r *rand.Rand, max int) samples {
	return samples{r: r, max: max, vals: make([]float64, 0, max)}
}

func (s *samples) add(v float64) {
	s.n++
	if len(s.vals) < s.max {
		s.vals = append(s.vals, v)
		return
	}
	if j := s.r.Int64N(s.n); j < int64(s.max) {
		s.vals[j] = v
	}
}

// merge pools o's sample into s. Pooled clients run the same workload
// for the same time, so their samples weigh alike.
func (s *samples) merge(o *samples) {
	s.vals = append(s.vals, o.vals...)
	s.n += o.n
}

// sorted returns the kept measurements in ascending order.
func (s *samples) sorted() []float64 {
	all := slices.Clone(s.vals)
	slices.Sort(all)
	return all
}

// clock splits a timed phase into equal windows. Each window's
// figures are computed on its own and a run reports the median across
// windows, so a burst of interference from outside the process (a
// noisy neighbour on a shared host) moves one window, not the result.
type clock struct {
	start time.Time
	width time.Duration
	n     int
}

func newClock(start time.Time, dur, width time.Duration) clock {
	return clock{start: start, width: width, n: max(int(dur/width), 1)}
}

// window returns the window t falls in; completions after the last
// window's end count in the last window.
func (c clock) window(t time.Time) int {
	return min(max(int(t.Sub(c.start)/c.width), 0), c.n-1)
}

// rssEvery is how often the sampler reads resident memory.
const rssEvery = 10 * time.Millisecond

// usage is what the sampler measured per window.
type usage struct {
	cpuWin   []time.Duration // process CPU time used in each window
	rssWin   []float64       // each window's peak resident memory, MiB
	stealWin []float64       // share of the machine's CPU time stolen by the host in each window
}

// sample starts a goroutine that reads the process's resident memory
// every rssEvery, keeping each window's peak, and its CPU time at every
// window boundary (at the first reading past it). The returned
// function, called when the phase ends, stops the sampler, waits for
// it and returns the figures; windows the phase never reached repeat
// the last readings.
func (c clock) sample() func() usage {
	type mark struct {
		cpu          time.Duration
		steal, total int64
	}
	take := func() mark {
		st, tot := hostTicks()
		return mark{cpu: cpuTime(), steal: st, total: tot}
	}
	marks := []mark{take()}
	rss := make([]float64, c.n)
	stop, done := make(chan struct{}), make(chan struct{})
	read := func(now time.Time) {
		w := c.window(now)
		for len(marks) <= w {
			marks = append(marks, take())
		}
		rss[w] = max(rss[w], residentMiB())
	}
	read(c.start)
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				read(now)
			case <-stop:
				return
			}
		}
	}()
	return func() usage {
		close(stop)
		<-done
		read(time.Now())
		end := take()
		for len(marks) <= c.n {
			marks = append(marks, end)
		}
		u := usage{cpuWin: make([]time.Duration, c.n), rssWin: rss, stealWin: make([]float64, c.n)}
		for i := range u.cpuWin {
			a, b := marks[i], marks[i+1]
			u.cpuWin[i] = b.cpu - a.cpu
			if b.total > a.total {
				u.stealWin[i] = float64(b.steal-a.steal) / float64(b.total-a.total)
			}
		}
		for i := 1; i < c.n; i++ {
			if u.rssWin[i] == 0 {
				u.rssWin[i] = u.rssWin[i-1]
			}
		}
		return u
	}
}

// bucket is one window's share of a tally.
type bucket struct {
	ok, failed int64
	lat        samples // ms per request; +Inf for a failed one
}

// tally accumulates one client's observations.
type tally struct {
	clock  clock
	wins   []bucket
	ok     int64
	failed int64
	res    reservoir
	rec    *recorder // nil unless the phase is traced
}

// newTally draws the latency and response samples from r.
func newTally(c clock, r *rand.Rand, keep int, rec *recorder) *tally {
	t := &tally{clock: c, wins: make([]bucket, c.n), res: reservoir{r: r, size: keep}, rec: rec}
	for i := range t.wins {
		t.wins[i].lat = newSamples(r, maxSamples/c.n)
	}
	return t
}

// observe records one completed request, sent when the handler was
// entered.
func (t *tally) observe(id uint64, q *request, w *writer, sent, done time.Time) {
	b := &t.wins[t.clock.window(done)]
	if w.code == http.StatusOK {
		t.ok++
		b.ok++
		b.lat.add(float64(done.Sub(sent).Nanoseconds()) / 1e6)
		t.res.offer(q, w.body)
	} else {
		t.failed++
		b.failed++
		b.lat.add(math.Inf(1))
	}
	if t.rec != nil {
		r := t.rec
		spans := []span{{req: id, id: 1, name: "service.handler", start: r.at(sent), end: r.at(done)}}
		spans = append(spans, stageSpans(w.h.Get("Server-Timing"), id, 1, r.at(sent), 2)...)
		r.add(spans)
	}
}

func (t *tally) merge(o *tally) {
	for i := range t.wins {
		t.wins[i].ok += o.wins[i].ok
		t.wins[i].failed += o.wins[i].failed
		t.wins[i].lat.merge(&o.wins[i].lat)
	}
	t.ok += o.ok
	t.failed += o.failed
	t.res.items = append(t.res.items, o.res.items...)
}

// phase is the outcome of one timed phase.
type phase struct {
	*tally
	elapsed time.Duration
	usage
	allocs uint64
	end    int64 // one past the highest sequence number sent
}

// windowFigures are one window's end-to-end figures. p99 is valid
// only when tailOK: at least minBeyond samples lie beyond it.
type windowFigures struct {
	qps, p50, p99, cpuPerReq, rss, steal float64
	samples, beyond                      int
	tailOK                               bool
}

// figures computes every window's figures. The last window runs until
// the phase ends (a closed loop's final requests finish after the
// deadline), so its rate divides by its true length.
func (p phase) figures() []windowFigures {
	out := make([]windowFigures, len(p.wins))
	for i, b := range p.wins {
		length := p.clock.width
		if i == len(p.wins)-1 {
			length = p.elapsed - time.Duration(i)*p.clock.width
		}
		lat := b.lat.sorted()
		p50, _ := percentile(lat, 0.50)
		p99, beyond := percentile(lat, 0.99)
		out[i] = windowFigures{
			qps:       float64(b.ok) / length.Seconds(),
			p50:       p50,
			p99:       p99,
			cpuPerReq: float64(p.cpuWin[i].Nanoseconds()) / 1e6 / float64(max(b.ok+b.failed, 1)),
			rss:       p.rssWin[i],
			steal:     p.stealWin[i],
			samples:   len(lat),
			beyond:    beyond,
			tailOK:    beyond >= minBeyond,
		}
	}
	return out
}

// pooledP99 is the p99 of every window's samples together, for a phase
// too slow for any single window to have a p99 of its own.
func (p phase) pooledP99() (float64, int, error) {
	var all samples
	for i := range p.wins {
		all.merge(&p.wins[i].lat)
	}
	return tailPercentile(all.sorted(), 0.99)
}

// closedLoop drives h with clients goroutines, each sending its next
// request as soon as the previous one returns. Client c sends requests
// from+c, from+c+clients, from+c+2*clients, ... of the sequence, until
// dur has passed or, when count > 0, until it has sent its share of
// count. next returns the request with a given sequence number.
type closedLoop struct {
	clients int
	dur     time.Duration
	window  time.Duration
	from    int64
	count   int64
	keep    int // responses each client keeps for the gate
	next    func(seq int64) *request
}

// loadClient is one closed-loop client's state. Everything a client
// writes per request lives here, padded, so the clients never write to
// a shared cache line: false sharing would make a request's cost
// depend on where the allocator happened to place them.
type loadClient struct {
	_    [64]byte
	samp rand.PCG // latency and response samples
	w    writer
	t    tally
	end  int64 // one past the last sequence number sent
	_    [64]byte
}

func (c closedLoop) run(h http.Handler, seed uint64, traced *recorder) phase {
	clients := make([]*loadClient, c.clients)
	var wg sync.WaitGroup
	allocs0, start := mallocs(), time.Now()
	clk := newClock(start, c.dur, c.window)
	measured := clk.sample()
	stopAt := start.Add(c.dur)
	for i := range clients {
		lc := &loadClient{w: writer{h: make(http.Header)}, end: c.from}
		lc.samp.Seed(faults.SplitSeed(seed, streamSample+uint64(i)))
		var rec *recorder
		if traced != nil {
			rec = newRecorder(traced.epoch, traced.maxKept/c.clients)
		}
		lc.t = *newTally(clk, rand.New(&lc.samp), c.keep, rec)
		clients[i] = lc
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for n := c.from + int64(id-1); c.count <= 0 || n < c.from+c.count; n += int64(c.clients) {
				q := c.next(n)
				sent := time.Now()
				if c.count <= 0 && !sent.Before(stopAt) {
					return
				}
				serve(h, &lc.w, q)
				lc.t.observe(id<<40|uint64(n), q, &lc.w, sent, time.Now())
				lc.end = n + 1
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start), allocs: mallocs() - allocs0, end: c.from}
	p.usage = measured()
	p.tally = newTally(clk, nil, 0, nil)
	for _, lc := range clients {
		p.end = max(p.end, lc.end)
		p.merge(&lc.t)
		if traced != nil {
			traced.merge(lc.t.rec)
		}
	}
	return p
}
