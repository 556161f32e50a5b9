package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call recorded by the benchmark: a layer call it
// made, or (for service stages) a stage the response's Server-Timing
// header reported. Spans of one request or probe share req; parent 0
// marks the root.
type span struct {
	req    uint64
	id     uint32
	parent uint32
	name   string
	start  int64 // ns since the recorder's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns, for each span of one request, its duration minus
// the part of its interval covered by its direct children (overlaps
// between children are counted once; child time outside the parent's
// interval is ignored).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, p := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.parent != p.id || c.id == p.id {
				continue
			}
			lo, hi := max(c.start, p.start), min(c.end, p.end)
			if lo < hi {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, k := range kids {
			switch {
			case !open:
				curLo, curHi, open = k[0], k[1], true
			case k[0] <= curHi:
				curHi = max(curHi, k[1])
			default:
				covered += curHi - curLo
				curLo, curHi = k[0], k[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = p.dur() - covered
	}
	return self
}

// spanAgg accumulates one span name over a run.
type spanAgg struct {
	count  int64
	total  int64 // ns
	selfNS int64
}

// recorder collects spans in memory. Aggregates cover every span; the
// span list kept for the output file is capped, so a long traced run
// cannot grow without bound. One recorder per goroutine; merge joins
// them at the end.
type recorder struct {
	epoch   time.Time
	maxKept int
	kept    []span
	dropped int64
	aggs    map[string]*spanAgg
}

func newRecorder(epoch time.Time, maxKept int) *recorder {
	return &recorder{epoch: epoch, maxKept: maxKept, aggs: make(map[string]*spanAgg)}
}

// at converts a wall-clock instant to the recorder's offset.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add records the complete span set of one request or probe.
func (r *recorder) add(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		a := r.aggs[s.name]
		if a == nil {
			a = &spanAgg{}
			r.aggs[s.name] = a
		}
		a.count++
		a.total += s.dur()
		a.selfNS += self[i]
	}
	if len(r.kept)+len(spans) > r.maxKept {
		r.dropped += int64(len(spans))
		return
	}
	r.kept = append(r.kept, spans...)
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	for name, a := range o.aggs {
		b := r.aggs[name]
		if b == nil {
			b = &spanAgg{}
			r.aggs[name] = b
		}
		b.count += a.count
		b.total += a.total
		b.selfNS += a.selfNS
	}
	room := max(r.maxKept-len(r.kept), 0)
	n := min(room, len(o.kept))
	r.kept = append(r.kept, o.kept[:n]...)
	r.dropped += o.dropped + int64(len(o.kept)-n)
}

// timeCall records one probe span around fn: a root span under its own
// request ID.
func (r *recorder) timeCall(req uint64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add([]span{{req: req, id: 1, name: name, start: r.at(start), end: r.at(end)}})
	return end.Sub(start)
}

// stageSpans turns a Server-Timing header ("app;dur=0.012, decode;dur=
// 0.003, ...", milliseconds) into spans under parent: a "service.app"
// span for the in-handler total and one "service.<stage>" span per
// entry beneath it. The header gives durations, not offsets, so the
// spans are laid end to end from start in the order reported (the
// service reports them in the order they ended).
func stageSpans(header string, req uint64, parent uint32, start int64, nextID uint32) []span {
	if header == "" {
		return nil
	}
	var out []span
	var appID uint32
	cursor := start
	for _, entry := range strings.Split(header, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok {
			continue
		}
		v, ok := strings.CutPrefix(strings.TrimSpace(params), "dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			continue
		}
		ns := int64(ms * 1e6)
		if name == "app" {
			appID = nextID
			out = append(out, span{req: req, id: nextID, parent: parent, name: "service.app", start: start, end: start + ns})
			nextID++
			continue
		}
		p := parent
		if appID != 0 {
			p = appID
		}
		out = append(out, span{req: req, id: nextID, parent: p, name: "service." + name, start: cursor, end: cursor + ns})
		cursor += ns
		nextID++
	}
	return out
}

// spanLine is one span of the output file.
type spanLine struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanSummary is one span name's totals over a run.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

// summary lists every span name with its total and self time, largest
// self time first.
func (r *recorder) summary() []spanSummary {
	out := make([]spanSummary, 0, len(r.aggs))
	for name, a := range r.aggs {
		out = append(out, spanSummary{Name: name, Count: a.count, TotalMS: float64(a.total) / 1e6, SelfMS: float64(a.selfNS) / 1e6})
	}
	slices.SortFunc(out, func(a, b spanSummary) int {
		if a.SelfMS != b.SelfMS {
			if a.SelfMS > b.SelfMS {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// writeFile writes the run header, the per-name summary and every kept
// span as JSON lines.
func (r *recorder) writeFile(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := r.encode(json.NewEncoder(w), header); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (r *recorder) encode(enc *json.Encoder, header any) error {
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range r.summary() {
		if err := enc.Encode(map[string]spanSummary{"summary": s}); err != nil {
			return err
		}
	}
	for _, s := range r.kept {
		if err := enc.Encode(spanLine{Req: s.req, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.end}); err != nil {
			return err
		}
	}
	return nil
}
