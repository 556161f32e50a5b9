package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 30},
		{id: 3, parent: 1, name: "b", start: 20, end: 50},  // overlaps a: 10..50 covered once
		{id: 4, parent: 1, name: "c", start: 90, end: 120}, // only 90..100 lies inside root
		{id: 5, parent: 2, name: "a1", start: 12, end: 18}, // grandchild: not root's child
		{id: 6, parent: 3, name: "b1", start: 0, end: 5},   // entirely outside its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestRecorderAggregatesAndCaps(t *testing.T) {
	r := newRecorder(time.Now(), 3)
	req := []span{{req: 1, id: 1, name: "p", start: 0, end: 10}, {req: 1, id: 2, parent: 1, name: "c", start: 2, end: 6}}
	r.add(req)
	r.add(req) // over the cap: aggregated, not kept
	if len(r.kept) != 2 || r.dropped != 2 {
		t.Fatalf("kept %d dropped %d, want 2 and 2", len(r.kept), r.dropped)
	}
	p := r.aggs["p"]
	if p.count != 2 || p.total != 20 || p.selfNS != 12 {
		t.Errorf("p aggregate %+v, want count 2 total 20 self 12", *p)
	}
	if c := r.aggs["c"]; c.count != 2 || c.total != 8 || c.selfNS != 8 {
		t.Errorf("c aggregate %+v, want count 2 total 8 self 8", *c)
	}
}

func TestStageSpans(t *testing.T) {
	got := stageSpans("app;dur=0.050, decode;dur=0.010, cache_lookup;dur=0.002, bogus, gate_wait;dur=x", 9, 2, 1000, 3)
	want := []span{
		{req: 9, id: 3, parent: 2, name: "service.app", start: 1000, end: 51000},
		{req: 9, id: 4, parent: 3, name: "service.decode", start: 1000, end: 11000},
		{req: 9, id: 5, parent: 3, name: "service.cache_lookup", start: 11000, end: 13000},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d spans %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if self := selfTimes(append([]span{{req: 9, id: 2, name: "service.handler", start: 1000, end: 61000}}, got...)); self[0] != 10000 || self[1] != 38000 {
		t.Errorf("handler self %d, app self %d; want 10000 and 38000", self[0], self[1])
	}
}
