package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/service"
)

// exactPath is the endpoint cold_exact calls.
const exactPath = "/v1/plan/exact"

// request is one synthesized /v1/plan/exact request: the configuration
// the benchmark keeps for its own checks, and the JSON body the service
// receives.
type request struct {
	kind  core.Kind
	costs core.Costs
	rates core.Rates
	body  []byte
}

// Random streams. Every key draws from its own PCG stream, derived from
// (seed, stream) the way the rest of the repository splits seeds, so a
// key's configuration does not depend on which other keys were
// generated before it.
const (
	streamCold   = 2 << 40
	streamProbe  = 3 << 40 // multilevel planner probe configurations
	streamSample = 5 << 40 // latency and response samples
)

// rng returns the PCG stream of (seed, stream).
func rng(seed, stream uint64) *rand.Rand {
	a, b := faults.SplitSeed(seed, stream)
	return rand.New(rand.NewPCG(a, b))
}

// scatter multiplies x by a factor drawn log-uniformly from [0.5, 2].
func scatter(r *rand.Rand, x float64) float64 {
	return x * math.Exp((r.Float64()*2-1)*math.Ln2)
}

// coldKey is request i of cold_exact's never-repeating stream: Table 2
// platform and family follow from the index alone (the platform rotates
// fastest, then the family, so any 24 consecutive requests cover every
// (platform, family) pair once, for every seed); the seed draws both
// error rates and the disk checkpoint and recovery costs, each scattered
// by x0.5-2.
func coldKey(seed uint64, i int) request {
	r := rng(seed, streamCold+uint64(i))
	nplat := len(platform.Table2())
	p := platform.Table2()[i%nplat]
	q := request{kind: core.Kinds()[i/nplat%len(core.Kinds())], costs: p.Costs, rates: p.Rates}
	q.rates.FailStop = scatter(r, q.rates.FailStop)
	q.rates.Silent = scatter(r, q.rates.Silent)
	q.costs.DiskCkpt = scatter(r, q.costs.DiskCkpt)
	q.costs.DiskRec = scatter(r, q.costs.DiskRec)
	body, err := json.Marshal(service.PlanRequest{Kind: q.kind.String(), Costs: &q.costs, Rates: &q.rates})
	if err != nil {
		panic(fmt.Sprintf("marshal plan request: %v", err)) // plain structs of finite floats
	}
	q.body = body
	return q
}

// probeParams is configuration i of the multilevel planner probe: Table
// 2 platform i split into 2 or 3 levels (the platform rotates fastest,
// then the level count), with both error rates and the top level's
// checkpoint and recovery costs scattered by x0.5-2.
func probeParams(seed uint64, i int) multilevel.Params {
	r := rng(seed, streamProbe+uint64(i))
	nplat := len(platform.Table2())
	p := platform.Table2()[i%nplat]
	ml, err := multilevel.FromPlatform(p, 2+i/nplat%2)
	if err != nil {
		panic(fmt.Sprintf("multilevel params of %s: %v", p.Name, err)) // Table 2 platforms are valid
	}
	ml.Rates.FailStop = scatter(r, ml.Rates.FailStop)
	ml.Rates.Silent = scatter(r, ml.Rates.Silent)
	top := &ml.Levels[len(ml.Levels)-1]
	f := scatter(r, 1)
	top.Ckpt *= f
	top.Rec *= f
	return ml
}

// multilevelProbe returns the multilevel planner probe's first n
// configurations.
func multilevelProbe(seed uint64, n int) []multilevel.Params {
	out := make([]multilevel.Params, n)
	for i := range out {
		out[i] = probeParams(seed, i)
	}
	return out
}
