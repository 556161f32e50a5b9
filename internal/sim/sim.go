// Package sim is the Monte-Carlo simulator used to validate the
// analytical model (Section 6 of the paper). It replays the execution
// of an application protected by a computational pattern on a virtual
// clock: fail-stop errors may strike during computations and — in the
// Section 5 mode — during verifications, checkpoints and recoveries,
// while silent errors strike computations only. A fail-stop error
// triggers a disk recovery and a pattern restart; a detected silent
// error triggers a memory recovery and a segment restart.
//
// Error arrivals are driven by exposure clocks: each process (fail-stop
// and silent) accumulates exposure only while an operation it can
// strike is running, which realises the paper's "errors strike
// computations" semantics for arbitrary renewal processes, not just the
// memoryless exponential. The clocks also let a run skip ahead: while
// the state is clean, every action that ends before both pending
// arrivals is completed at once from a prefix table over the schedule,
// and only the action holding an arrival is stepped (DESIGN.md §2.2).
//
// Detection semantics match the accounting of Proposition 3: a silent
// error leaves the application state corrupted; each partial
// verification executed while corrupted detects independently with
// probability r (so a corruption surviving k partial verifications has
// probability (1-r)^k), and a guaranteed verification always detects.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/sched"
	"respat/internal/stats"
)

// Stream identifiers for deterministic per-run seed derivation.
const (
	streamFail = iota
	streamSilent
	streamDetect
	numStreams
)

// Config parameterises a simulation campaign.
type Config struct {
	Pattern core.Pattern
	Costs   core.Costs
	Rates   core.Rates
	// Patterns is the number of pattern instances forming the
	// application (the paper uses 1000 optimal patterns).
	Patterns int
	// Runs is the number of independent Monte-Carlo repetitions (the
	// paper uses 1000).
	Runs int
	// Seed makes the whole campaign reproducible; runs are seeded
	// independently of scheduling, so results do not depend on Workers.
	Seed uint64
	// ErrorsInOps enables fail-stop errors during verifications,
	// checkpoints and recoveries (the Section 5 / reference-simulator
	// behaviour). When false, the Sections 3-4 assumption holds and
	// only computations are exposed.
	ErrorsInOps bool
	// Workers bounds the number of parallel simulation goroutines of
	// Run; 0 means GOMAXPROCS. RunAll sizes its pool itself.
	Workers int
	// FailSource and SilentSource optionally override the exponential
	// arrival processes (e.g. Weibull ablations or trace replay in
	// tests). They are invoked once per run with the run index.
	FailSource   func(run int) faults.Source
	SilentSource func(run int) faults.Source
}

// Counters tallies the events of one run (or, summed, of a campaign).
// MemRecs counts only standalone memory recoveries triggered by a
// verification alarm; the memory restore bundled with every disk
// recovery is part of DiskRecs, matching the paper's Figure 6e
// accounting.
type Counters struct {
	FailStop     int64 // fail-stop errors injected
	Silent       int64 // silent errors injected
	SilentMasked int64 // corruptions wiped by a fail-stop before detection
	DiskCkpts    int64 // completed disk checkpoints
	MemCkpts     int64 // completed memory checkpoints
	PartVerifs   int64 // completed partial verifications
	GuarVerifs   int64 // completed guaranteed verifications
	DiskRecs     int64 // disk recoveries (each includes a memory restore)
	MemRecs      int64 // standalone memory recoveries
	DetectByPart int64 // corruptions caught by a partial verification
	DetectByGuar int64 // corruptions caught by a guaranteed verification
}

func (c *Counters) add(o Counters) {
	c.FailStop += o.FailStop
	c.Silent += o.Silent
	c.SilentMasked += o.SilentMasked
	c.DiskCkpts += o.DiskCkpts
	c.MemCkpts += o.MemCkpts
	c.PartVerifs += o.PartVerifs
	c.GuarVerifs += o.GuarVerifs
	c.DiskRecs += o.DiskRecs
	c.MemRecs += o.MemRecs
	c.DetectByPart += o.DetectByPart
	c.DetectByGuar += o.DetectByGuar
}

// Verifs returns partial plus guaranteed verifications.
func (c Counters) Verifs() int64 { return c.PartVerifs + c.GuarVerifs }

// Result aggregates a campaign.
type Result struct {
	Runs        int
	Patterns    int
	PatternWork float64      // W of the simulated pattern
	Overhead    stats.Sample // per-run (time-work)/work
	WallTime    stats.Sample // per-run total simulated seconds
	Total       Counters     // summed over runs
}

// TotalTime returns the summed simulated wall-clock over all runs.
func (r Result) TotalTime() float64 { return r.WallTime.Mean() * float64(r.WallTime.N()) }

// PerHour converts a campaign-total event count into the average
// number of events per simulated hour.
func (r Result) PerHour(count int64) float64 {
	t := r.TotalTime()
	if t == 0 {
		return 0
	}
	return float64(count) / (t / 3600)
}

// PerDay converts a campaign-total event count into the average number
// of events per simulated day.
func (r Result) PerDay(count int64) float64 { return r.PerHour(count) * 24 }

// PerPattern converts a campaign-total event count into the average
// number of events per executed pattern.
func (r Result) PerPattern(count int64) float64 {
	n := float64(r.Runs) * float64(r.Patterns)
	if n == 0 {
		return 0
	}
	return float64(count) / n
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if err := cfg.Pattern.Validate(); err != nil {
		return err
	}
	if err := cfg.Costs.Validate(); err != nil {
		return err
	}
	if cfg.FailSource == nil || cfg.SilentSource == nil {
		if err := cfg.Rates.Validate(); err != nil {
			return err
		}
	}
	if cfg.Patterns <= 0 {
		return fmt.Errorf("sim: Patterns = %d, need > 0", cfg.Patterns)
	}
	if cfg.Runs <= 0 {
		return fmt.Errorf("sim: Runs = %d, need > 0", cfg.Runs)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("sim: Workers = %d, need >= 0", cfg.Workers)
	}
	return nil
}

// Run executes one campaign: RunAll of cfg alone on a pool of
// cfg.Workers goroutines. Results are bit-identical for a fixed
// cfg.Seed regardless of Workers.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return runAll([]Config{cfg}, cfg.Workers)[0], nil
}

// RunAll simulates every campaign of cfgs on one pool of workers
// goroutines (0 means GOMAXPROCS); each config's own Workers field is
// ignored. Each campaign's runs are split into blocks (blockSize), and
// the blocks of all campaigns are claimed in order from one pool, so
// one long campaign does not leave the other workers idle. Results[i]
// is bit-identical to Run(cfgs[i]) for any pool size: every run
// derives its random streams from (Seed, run) alone, per-run
// statistics are reduced in run order, and the integer counters are
// summed exactly in any order.
func RunAll(cfgs []Config, workers int) ([]Result, error) {
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: config %d: %w", i, err)
		}
	}
	if workers < 0 {
		return nil, fmt.Errorf("sim: workers = %d, need >= 0", workers)
	}
	return runAll(cfgs, workers), nil
}

// campaign is one config of a RunAll pool: its shared plan, built by
// the first worker to reach one of its blocks, and where its per-run
// samples go.
type campaign struct {
	cfg  *Config
	once sync.Once
	plan *plan
	work float64 // total work of one run
	run0 int     // offset of run 0 in the pool's sample slice
}

// minBlockPatterns is the fewest pattern instances a block simulates.
// Claiming a block costs a few cache-line transfers between workers,
// ~0.3 µs on a 2-vCPU VM; a clean pattern instance can cost 30 ns, so
// a block of one short run would spend as long being claimed as being
// simulated.
const minBlockPatterns = 256

// blockSize is the number of runs per block of cfg on a pool of
// workers: about Runs/(4·workers), so each worker claims several blocks
// of every campaign and the last blocks are short, but never fewer
// runs than minBlockPatterns pattern instances.
func blockSize(cfg *Config, workers int) int {
	return max(cfg.Runs/(4*workers), (minBlockPatterns+cfg.Patterns-1)/cfg.Patterns)
}

// block is a range of one campaign's runs, simulated by one worker on
// one executor.
type block struct {
	c, lo, hi int
}

// worker is the state of one pool goroutine: the executor of the
// campaign it last simulated, and its own row of counters, one per
// campaign.
type worker struct {
	c   int
	ex  *executor
	cnt []Counters
}

// runAll is RunAll on validated configs.
func runAll(cfgs []Config, workers int) []Result {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	camps := make([]campaign, len(cfgs))
	var blocks []block
	runs := 0
	for c := range cfgs {
		cfg := &cfgs[c]
		camps[c].cfg, camps[c].work, camps[c].run0 = cfg, cfg.Pattern.W*float64(cfg.Patterns), runs
		runs += cfg.Runs
		size := blockSize(cfg, workers)
		for lo := 0; lo < cfg.Runs; lo += size {
			blocks = append(blocks, block{c: c, lo: lo, hi: min(lo+size, cfg.Runs)})
		}
	}
	// samples holds each run's overhead and wall time side by side.
	samples := make([]float64, 2*runs)
	// RunCellsCtx starts at most min(workers, blocks) workers; each
	// takes the next worker slot and its counter row. The counters are
	// integers, so summing them per worker is exact in any order.
	ws := make([]worker, min(workers, len(blocks)))
	totals := make([]Counters, len(ws)*len(camps))
	var started atomic.Int32
	newWorker := func() (*worker, error) {
		id := int(started.Add(1)) - 1
		w := &ws[id]
		w.c, w.cnt = -1, totals[id*len(camps):(id+1)*len(camps)]
		return w, nil
	}
	// A worker keeps its executor while consecutive blocks belong to
	// the same campaign. No block can fail.
	_ = sched.RunCellsCtx(len(blocks), workers, newWorker, func(w *worker, b int) error {
		blk := blocks[b]
		cp := &camps[blk.c]
		if w.c != blk.c {
			cp.once.Do(func() { cp.plan = newPlan(cp.cfg) })
			w.c, w.ex = blk.c, newExecutor(cp.cfg, cp.plan)
		}
		cnt := &w.cnt[blk.c]
		for run := blk.lo; run < blk.hi; run++ {
			w.ex.reset(run)
			c, elapsed := w.ex.runAll()
			slot := samples[2*(cp.run0+run):]
			slot[0], slot[1] = (elapsed-cp.work)/cp.work, elapsed
			cnt.add(c)
		}
		return nil
	})

	results := make([]Result, len(camps))
	for c := range camps {
		cp := &camps[c]
		res := &results[c]
		*res = Result{Runs: cp.cfg.Runs, Patterns: cp.cfg.Patterns, PatternWork: cp.cfg.Pattern.W}
		for run := cp.run0; run < cp.run0+cp.cfg.Runs; run++ {
			res.Overhead.Add(samples[2*run])
			res.WallTime.Add(samples[2*run+1])
		}
		for id := range ws {
			res.Total.add(totals[id*len(camps)+c])
		}
	}
	return results
}

// process drives one error source on an exposure clock.
type process struct {
	src   faults.Source
	clock float64 // accumulated exposure
	next  float64 // next arrival on the exposure clock
}

func newProcess(src faults.Source) process {
	return process{src: src, next: src.Next(0)}
}

// within reports the exposure distance to the next arrival and whether
// it falls inside the next d units of exposure.
func (p *process) within(d float64) (float64, bool) {
	dt := p.next - p.clock
	return dt, dt <= d
}

// advance consumes d units of exposure known to contain no arrival.
func (p *process) advance(d float64) { p.clock += d }

// consume advances to the pending arrival and schedules the next one.
func (p *process) consume() {
	p.clock = p.next
	p.next = p.src.Next(p.clock)
}

// plan is the immutable flattening of a pattern shared by every run of
// a campaign: the executable schedule, each segment's first action
// index, and the prefix table that lets a run jump over actions no
// error can strike. Building it once per Run (instead of once per run,
// as the executor used to) removes the dominant per-run allocations of
// paper-scale campaigns.
type plan struct {
	sched    []core.Action
	segStart []int    // schedule index of each segment's first action
	pre      []prefix // pre[k] sums the first k actions; len(sched)+1 rows
	// Actions per unit of fail-stop and silent exposure over the whole
	// schedule: cleanEnd's guess of how far an arrival lies.
	actPerFail, actPerSilent float64
}

// prefix is one row of a plan's prefix table: what the schedule's
// first k actions add up to when they run without an error. The
// counts are plain integers rather than a Counters value so a jump
// adds four fields instead of copying two structs.
type prefix struct {
	time   float64 // error-free elapsed time
	fail   float64 // fail-stop exposure (every op with ErrorsInOps, else chunks)
	silent float64 // silent exposure (chunks only)
	part   int32   // completed partial verifications
	guar   int32   // completed guaranteed verifications
	mem    int32   // completed memory checkpoints
	disk   int32   // completed disk checkpoints
}

func newPlan(cfg *Config) *plan {
	sched := cfg.Pattern.Schedule()
	segStart := make([]int, cfg.Pattern.N())
	pre := make([]prefix, len(sched)+1)
	seen := 0
	for i, a := range sched {
		if a.Op == core.OpChunk && a.Chunk == 0 && a.Segment == seen {
			segStart[seen] = i
			seen++
		}
		row := pre[i]
		switch a.Op {
		case core.OpChunk:
			row.time += a.Work
			row.fail += a.Work
			row.silent += a.Work
		case core.OpPartVer:
			row.addOp(cfg, cfg.Costs.PartVer)
			row.part++
		case core.OpGuarVer:
			row.addOp(cfg, cfg.Costs.GuarVer)
			row.guar++
		case core.OpMemCkpt:
			row.addOp(cfg, cfg.Costs.MemCkpt)
			row.mem++
		case core.OpDisk:
			row.addOp(cfg, cfg.Costs.DiskCkpt)
			row.disk++
		}
		pre[i+1] = row
	}
	n, last := float64(len(sched)), pre[len(sched)]
	return &plan{sched: sched, segStart: segStart, pre: pre, actPerFail: n / last.fail, actPerSilent: n / last.silent}
}

// addOp accounts a non-computation operation the way protectedOp runs
// it error-free: a cost <= 0 takes no time and no exposure, and only
// ErrorsInOps exposes it to fail-stop errors.
func (r *prefix) addOp(cfg *Config, cost float64) {
	if cost <= 0 {
		return
	}
	r.time += cost
	if cfg.ErrorsInOps {
		r.fail += cost
	}
}

// cleanEnd returns the largest j in [i, len(sched)] such that actions
// i..j-1 all complete before the next arrivals: their cumulative
// fail-stop and silent exposure since action i stays strictly below
// the exposure distances df and ds. Action j, if any, is the one that
// holds an arrival. Action i alone is tested first, so a run whose
// every action is struck pays one comparison. Otherwise the search
// starts from the crossing the plan's mean exposure per action
// predicts, gallops from there to bracket j and binary-searches the
// bracket: O(1) tests when the guess is close, O(log A) at worst. The
// test is monotone in j, so the index is the one a plain binary search
// over [i+1, len(sched)] returns.
func (pl *plan) cleanEnd(i int, df, ds float64) int {
	pre := pl.pre
	f0, s0 := pre[i].fail, pre[i].silent
	clean := func(k int) bool { return pre[k].fail-f0 < df && pre[k].silent-s0 < ds }
	if !clean(i + 1) {
		return i
	}
	lo, hi := i+1, len(pre) // clean(lo) holds; clean(hi) is out of range
	// g guesses the crossing; a NaN guess fails both tests and leaves
	// g at lo, an infinite one is clamped to the table.
	g, steps := lo, df*pl.actPerFail
	if s := ds * pl.actPerSilent; s < steps {
		steps = s
	}
	if steps >= float64(hi-1-i) {
		g = hi - 1
	} else if steps > 1 {
		g = i + int(steps)
	}
	if g > lo && !clean(g) {
		hi = g
		for step := 1; hi-step > lo; step <<= 1 {
			if clean(hi - step) {
				lo = hi - step
				break
			}
			hi -= step
		}
	} else {
		lo = g
		for step := 1; lo+step < hi; step <<= 1 {
			if !clean(lo + step) {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if clean(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// executor simulates runs one at a time; one executor is reused across
// all runs of a worker, reseeded per run by reset.
type executor struct {
	cfg       *Config
	plan      *plan
	fail      process
	silent    process
	detect    faults.Bernoulli
	now       float64
	corrupted bool
	cnt       Counters
	// Reusable default sources and their generators, reseeded in place
	// per run and held by value so an executor is a few allocations;
	// the exponential sources are unused when the corresponding factory
	// override is set.
	failExp   faults.Exponential
	failPCG   rand.PCG
	silentExp faults.Exponential
	silentPCG rand.PCG
	detectPCG rand.PCG
	// Optional event recorder (TraceOne) plus its position context.
	rec    func(Event)
	curSeg int
	patIdx int
}

// emit records a timeline event when tracing is enabled.
func (e *executor) emit(k EventKind, op core.Op) {
	if e.rec != nil {
		e.rec(Event{Time: e.now, Kind: k, Op: op, Segment: e.curSeg, Pattern: e.patIdx})
	}
}

// newExecutor builds a reusable executor for a validated configuration
// against a campaign-shared plan. Call reset before each run.
func newExecutor(cfg *Config, pl *plan) *executor {
	e := &executor{cfg: cfg, plan: pl}
	// The rates were validated by Config.Validate whenever a default
	// exponential source is needed, so construction cannot fail here.
	if cfg.FailSource == nil {
		e.failExp = faults.Exponential{Lambda: cfg.Rates.FailStop, Rng: rand.New(&e.failPCG)}
	}
	if cfg.SilentSource == nil {
		e.silentExp = faults.Exponential{Lambda: cfg.Rates.Silent, Rng: rand.New(&e.silentPCG)}
	}
	e.detect = faults.Bernoulli{Rng: rand.New(&e.detectPCG)}
	return e
}

// reset prepares the executor for one run. Every random stream depends
// only on (cfg.Seed, run), never on scheduling, so results are
// bit-identical across worker counts; reseeding the generators in place
// is state-equivalent to constructing fresh ones with the same seeds.
func (e *executor) reset(run int) {
	var failSrc, silentSrc faults.Source
	if e.cfg.FailSource != nil {
		failSrc = e.cfg.FailSource(run)
	} else {
		s1, s2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numStreams+streamFail)
		e.failPCG.Seed(s1, s2)
		failSrc = &e.failExp
	}
	if e.cfg.SilentSource != nil {
		silentSrc = e.cfg.SilentSource(run)
	} else {
		s1, s2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numStreams+streamSilent)
		e.silentPCG.Seed(s1, s2)
		silentSrc = &e.silentExp
	}
	d1, d2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numStreams+streamDetect)
	e.detectPCG.Seed(d1, d2)
	e.fail = newProcess(failSrc)
	e.silent = newProcess(silentSrc)
	e.now = 0
	e.corrupted = false
	e.cnt = Counters{}
	e.curSeg = 0
	e.patIdx = 0
}

// runAll executes cfg.Patterns pattern instances and returns the event
// counters and total elapsed virtual time.
func (e *executor) runAll() (Counters, float64) {
	for p := 0; p < e.cfg.Patterns; p++ {
		e.patIdx = p
		e.runPattern()
		e.emit(EvPatternDone, core.OpDisk)
	}
	return e.cnt, e.now
}

// outcome of a protected (fail-stop-exposed) operation.
type outcome int

const (
	opDone outcome = iota
	opFailStop
)

// runPattern executes one pattern instance to completion, restarting
// from the disk checkpoint on fail-stop errors and from the enclosing
// segment's memory checkpoint on detected silent errors.
//
// While the state is clean it jumps from one error arrival to the
// next: skip advances over every action that completes before the
// pending fail-stop and silent arrivals, and only the action holding an
// arrival is stepped. A corrupted state is stepped action by action, so
// every detection draw happens in the same order as a stepwise replay.
func (e *executor) runPattern() {
	for i := 0; i < len(e.plan.sched); {
		if !e.corrupted {
			if i = e.skip(i); i == len(e.plan.sched) {
				break
			}
		}
		i = e.step(i)
	}
}

// step executes action i and returns the index of the next action: 0
// after a fail-stop error (disk recovery, pattern restart), the
// segment's first action after a detected corruption (memory recovery,
// segment restart), i+1 otherwise.
func (e *executor) step(i int) int {
	a := e.plan.sched[i]
	e.curSeg = a.Segment
	switch a.Op {
	case core.OpChunk:
		if e.chunk(a.Work) == opFailStop {
			e.diskRecovery()
			return 0
		}
		e.emit(EvOpDone, core.OpChunk)
	case core.OpPartVer, core.OpGuarVer:
		var res outcome
		var detected bool
		if a.Op == core.OpPartVer {
			res, detected = e.verify(core.OpPartVer, e.cfg.Costs.PartVer, e.cfg.Costs.Recall, &e.cnt.PartVerifs, &e.cnt.DetectByPart)
		} else {
			res, detected = e.verify(core.OpGuarVer, e.cfg.Costs.GuarVer, 1, &e.cnt.GuarVerifs, &e.cnt.DetectByGuar)
		}
		if res == opFailStop {
			e.diskRecovery()
			return 0
		}
		if detected {
			if e.memRecovery() == opFailStop {
				return 0
			}
			return e.plan.segStart[a.Segment]
		}
	case core.OpMemCkpt:
		if e.protectedOp(e.cfg.Costs.MemCkpt) == opFailStop {
			e.diskRecovery()
			return 0
		}
		e.cnt.MemCkpts++
		e.emit(EvOpDone, core.OpMemCkpt)
	case core.OpDisk:
		if e.protectedOp(e.cfg.Costs.DiskCkpt) == opFailStop {
			e.diskRecovery()
			return 0
		}
		e.cnt.DiskCkpts++
		e.emit(EvOpDone, core.OpDisk)
	}
	return i + 1
}

// skip completes, from the prefix table, every action from i on that
// ends before the pending arrivals, and returns the index of the first
// action it did not complete. It reads only the exposure distances
// next - clock, so it holds for any faults.Source, and it draws no
// random number: a clean verification draws nothing stepwise either.
// When tracing, each skipped action still emits its op-done event.
func (e *executor) skip(i int) int {
	j := e.plan.cleanEnd(i, e.fail.next-e.fail.clock, e.silent.next-e.silent.clock)
	if j == i {
		return i
	}
	p0, p1 := &e.plan.pre[i], &e.plan.pre[j]
	if e.rec != nil {
		for k := i; k < j; k++ {
			a := e.plan.sched[k]
			e.rec(Event{Time: e.now + (e.plan.pre[k+1].time - p0.time), Kind: EvOpDone, Op: a.Op, Segment: a.Segment, Pattern: e.patIdx})
		}
		e.curSeg = e.plan.sched[j-1].Segment
	}
	e.now += p1.time - p0.time
	e.fail.advance(p1.fail - p0.fail)
	e.silent.advance(p1.silent - p0.silent)
	e.cnt.PartVerifs += int64(p1.part - p0.part)
	e.cnt.GuarVerifs += int64(p1.guar - p0.guar)
	e.cnt.MemCkpts += int64(p1.mem - p0.mem)
	e.cnt.DiskCkpts += int64(p1.disk - p0.disk)
	return j
}

// chunk executes w seconds of computation, exposed to both error
// processes. It returns opFailStop if interrupted.
func (e *executor) chunk(w float64) outcome {
	remaining := w
	for remaining > 0 {
		fdt, fHit := e.fail.within(remaining)
		sdt, sHit := e.silent.within(remaining)
		if sHit && (!fHit || sdt <= fdt) {
			// A silent error strikes first: corrupt and keep computing.
			e.silent.consume()
			e.fail.advance(sdt)
			e.now += sdt
			remaining -= sdt
			e.corrupted = true
			e.cnt.Silent++
			e.emit(EvSilent, core.OpChunk)
			continue
		}
		if fHit {
			e.fail.consume()
			e.silent.advance(fdt)
			e.now += fdt
			e.cnt.FailStop++
			e.emit(EvFailStop, core.OpChunk)
			return opFailStop
		}
		e.fail.advance(remaining)
		e.silent.advance(remaining)
		e.now += remaining
		remaining = 0
	}
	return opDone
}

// protectedOp executes a non-computation operation of the given cost.
// Silent errors never strike it; fail-stop errors do when ErrorsInOps.
func (e *executor) protectedOp(cost float64) outcome {
	if cost <= 0 {
		return opDone
	}
	if !e.cfg.ErrorsInOps {
		e.now += cost
		return opDone
	}
	if fdt, hit := e.fail.within(cost); hit {
		e.fail.consume()
		e.now += fdt
		e.cnt.FailStop++
		e.emit(EvFailStop, core.OpChunk)
		return opFailStop
	}
	e.fail.advance(cost)
	e.now += cost
	return opDone
}

// verify runs a verification of the given cost and recall, bumps its
// counter on completion and reports whether an existing corruption was
// detected.
func (e *executor) verify(op core.Op, cost, recall float64, done, caught *int64) (outcome, bool) {
	if e.protectedOp(cost) == opFailStop {
		return opFailStop, false
	}
	*done++
	e.emit(EvOpDone, op)
	if e.corrupted && e.detect.Hit(recall) {
		*caught++
		e.emit(EvDetect, op)
		return opDone, true
	}
	return opDone, false
}

// diskRecovery restores the last disk checkpoint (RD) and the memory
// state (RM), retrying per the Section 5 semantics: a fail-stop during
// either restore resumes from the disk read. It clears any pending
// corruption — the restored state is verified by construction.
func (e *executor) diskRecovery() {
	for {
		if e.protectedOp(e.cfg.Costs.DiskRec) == opFailStop {
			continue
		}
		if e.protectedOp(e.cfg.Costs.MemRec) == opFailStop {
			continue
		}
		break
	}
	e.cnt.DiskRecs++
	e.emit(EvDiskRec, core.OpChunk)
	if e.corrupted {
		e.cnt.SilentMasked++
		e.corrupted = false
	}
}

// memRecovery restores the segment's memory checkpoint after a
// verification alarm. A fail-stop during the restore escalates to a
// full disk recovery (the memory content is lost), reported as
// opFailStop so the caller restarts the whole pattern.
func (e *executor) memRecovery() outcome {
	if e.protectedOp(e.cfg.Costs.MemRec) == opFailStop {
		e.diskRecovery()
		return opFailStop
	}
	e.cnt.MemRecs++
	e.emit(EvMemRec, core.OpChunk)
	e.corrupted = false
	return opDone
}

// OverheadPredictionGap returns the relative gap between a simulated
// overhead and a model prediction, |sim - pred| / max(pred, eps); it is
// the figure reported in EXPERIMENTS.md.
func OverheadPredictionGap(simulated, predicted float64) float64 {
	den := math.Max(math.Abs(predicted), 1e-12)
	return math.Abs(simulated-predicted) / den
}
