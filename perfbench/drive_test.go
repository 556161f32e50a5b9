package main

import (
	"net/http"
	"testing"
	"time"
)

// TestClosedLoopCountIsExact sends a fixed count from an offset: every
// sequence number from `from` to from+count-1 is sent once, and the
// phase reports where the next phase on the same key stream starts.
func TestClosedLoopCountIsExact(t *testing.T) {
	q := coldKey(1, 0)
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	seen := make(chan int64, 1000)
	p := closedLoop{clients: 2, dur: time.Second, window: time.Second, from: 100, count: 500, keep: 3,
		next: func(seq int64) *request { seen <- seq; return &q }}.run(ok, 1, nil)
	if p.ok != 500 || p.wins[0].lat.n != 500 || len(p.res.items) > 6 {
		t.Errorf("%d ok, %d latencies, %d kept; want 500, 500, at most 6", p.ok, p.wins[0].lat.n, len(p.res.items))
	}
	close(seen)
	got := map[int64]bool{}
	for n := range seen {
		if n < 100 || n >= 600 || got[n] {
			t.Fatalf("sequence number %d sent out of range or twice", n)
		}
		got[n] = true
	}
	if len(got) != 500 || p.end != 600 {
		t.Errorf("%d distinct sequence numbers, end %d; want 500 and 600", len(got), p.end)
	}
}
