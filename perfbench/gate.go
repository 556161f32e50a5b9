package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"respat/internal/analytic"
	"respat/internal/optimize"
	"respat/internal/service"
)

// answer is the part of a plan the gate compares: the interval count
// n, the chunk count m, the pattern length W and the overhead.
type answer struct {
	n, m     int
	w        float64
	overhead float64
}

func (a answer) String() string {
	return fmt.Sprintf("n=%d m=%d W=%v H=%v", a.n, a.m, a.w, a.overhead)
}

// direct computes q's answer by calling the planner /v1/plan/exact
// serves from, outside the service: optimize.ExactWithEvaluator on a
// fresh evaluator, seeded with the first-order plan.
func direct(q *request) (answer, error) {
	first, err := analytic.Optimal(q.kind, q.costs, q.rates)
	if err != nil {
		return answer{}, err
	}
	ev, err := analytic.NewEvaluator(q.costs, q.rates)
	if err != nil {
		return answer{}, err
	}
	p, err := optimize.ExactWithEvaluator(ev, first)
	if err != nil {
		return answer{}, err
	}
	return answer{n: p.N, m: p.M, w: p.W, overhead: p.Overhead}, nil
}

// decode reads the answer out of a served response body.
func decode(body []byte) (answer, error) {
	var r service.PlanResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	return answer{n: r.N, m: r.M, w: r.W, overhead: r.Overhead}, nil
}

// gateReport is the correctness gate's verdict on a set of samples.
type gateReport struct {
	checked int
	wrong   int      // samples that failed any check
	notes   []string // the first few failures, for the log
}

func (g *gateReport) fail(format string, args ...any) {
	g.wrong++
	if len(g.notes) < 5 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// checkSamples is cold_exact's correctness gate, run outside
// the timed phase. Every sampled response must carry the answer the
// planner gives when called directly, and must be byte-identical to the
// response a fresh service (built by fresh) computes cold for the same
// request; the fresh service's cache hit must in turn be byte-identical
// to its own cold response.
func checkSamples(samples []sample, fresh http.Handler) gateReport {
	g := gateReport{checked: len(samples)}
	type ref struct {
		want answer
		cold []byte
		err  error
	}
	refs := make(map[string]*ref)
	w := newWriter()
	for _, s := range samples {
		r := refs[string(s.q.body)]
		if r == nil {
			r = &ref{}
			refs[string(s.q.body)] = r
			r.want, r.err = direct(s.q)
			if r.err == nil {
				serve(fresh, w, s.q)
				if w.code != http.StatusOK {
					r.err = fmt.Errorf("fresh service: status %d: %s", w.code, w.body)
				} else {
					r.cold = slices.Clone(w.body)
					serve(fresh, w, s.q)
					if !bytes.Equal(w.body, r.cold) {
						r.err = fmt.Errorf("fresh service: cache hit %q differs from cold response %q", w.body, r.cold)
					}
				}
			}
		}
		if r.err != nil {
			g.fail("%v", r.err)
			continue
		}
		got, err := decode(s.body)
		switch {
		case err != nil:
			g.fail("undecodable response %q: %v", s.body, err)
		case got != r.want:
			g.fail("served %v, planner gives %v", got, r.want)
		case !bytes.Equal(s.body, r.cold):
			g.fail("served %q, cold response is %q", s.body, r.cold)
		}
	}
	return g
}
