package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/serve"
)

// Every workload schedules scale-4 networks with the quick budget on
// arch5 (4 cores, 256 KiB scratchpad, 32 B/cycle).
const (
	archName  = "arch5"
	archCores = 4
	netScale  = 4
	budget    = "quick"

	layerPath   = "/v1/schedule/layer"
	networkPath = "/v1/schedule/network"
)

// The networks each workload names.
var (
	coldNets  = []string{"vgg16", "resnet50", "squeezenet", "yolov2"}
	fusedNets = []string{"vgg16", "resnet50", "squeezenet"}
	hotNets   = []string{"squeezenet", "resnet50"}
)

// call is one request the benchmark sends.
type call struct {
	// key names the request in output checks and identifies its
	// expected response.
	key    string
	path   string
	body   []byte
	stream bool
	// network is the network a sweep or network hit names; fused and
	// plan echo what the request asked for.
	network string
	fused   bool
	plan    *fault.Plan
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err)) // the request types always marshal
	}
	return b
}

func networkCall(name string, fuseDepth int, plan *fault.Plan, stream bool) call {
	c := call{
		key:     name,
		path:    networkPath,
		stream:  stream,
		network: name,
		fused:   fuseDepth > 0,
		plan:    plan,
		body: mustJSON(serve.NetworkRequest{
			Arch:      archName,
			Network:   name,
			Scale:     netScale,
			Options:   serve.SearchOptionsJSON{Budget: budget, FuseDepth: fuseDepth},
			FaultPlan: plan,
		}),
	}
	if c.fused {
		c.key += "+fused"
	}
	return c
}

// coldCalls is one sweep-cold sweep: four layerwise networks.
func coldCalls() []call {
	calls := make([]call, len(coldNets))
	for i, n := range coldNets {
		calls[i] = networkCall(n, 0, nil, false)
	}
	return calls
}

// planHorizon scales each network's fault plan to its mean nominal
// layer makespan (total cycles / layers), because every layer's
// schedule starts at cycle 0.
var planHorizon = map[string]int64{
	"vgg16":      1266103 / 13,
	"resnet50":   1696177 / 53,
	"squeezenet": 115609 / 26,
}

// faultPlans draws one plan per fused network from seed with
// fault.Random. It redraws until the plan has a flaky window, so every
// seed's plans have one shape, a core death and a flaky window, and only
// their timing varies: a flaky window multiplies the fused repair's work,
// and without this a seed would pick how much work a run does. DMA
// derate windows are removed: fused gathers that start inside one fail
// degraded verification today (see README.md), and a timed plan that
// aborts early would reward keeping that defect.
func faultPlans(seed int64) []*fault.Plan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]*fault.Plan, len(fusedNets))
	for i, n := range fusedNets {
		p := fault.Random(rng.Int63(), archCores, planHorizon[n])
		for len(p.Flaky) == 0 {
			p = fault.Random(rng.Int63(), archCores, planHorizon[n])
		}
		p.DMA = nil
		plans[i] = p
	}
	return plans
}

// fusedCalls is one sweep-fused-faults sweep: three fused, streamed
// networks, each under its own seeded fault plan.
func fusedCalls(seed int64) []call {
	plans := faultPlans(seed)
	calls := make([]call, len(fusedNets))
	for i, n := range fusedNets {
		calls[i] = networkCall(n, 1, plans[i], true)
	}
	return calls
}

// Request kinds of the serve-hot mix and their shares in percent.
const (
	kindLayer   = "layer"
	kindFull    = "full"
	kindStream  = "stream"
	kindNetwork = "network"
)

// No request log of flexerd exists, so the shares are an assumption
// with the shape "mostly plain layer hits, some full, some streamed,
// some network". Only the full share has a source: the 2-client
// prototype that sized this workload sent about 30% full requests.
// Full hits decide most of the bytes and allocation per request (a
// timeline of about 176 KB each), so that share sets alloc_mb and much
// of req_per_s.
var mixShares = []struct {
	kind    string
	percent int
}{
	{kindLayer, 50},
	{kindFull, 30},
	{kindStream, 10},
	{kindNetwork, 10},
}

// hotCall is one distinct request of the serve-hot mix.
type hotCall struct {
	call
	kind string
}

// hotCatalogue lists every distinct request the serve-hot mix draws
// from: each distinct layer shape of the hot networks as a plain, a
// full and a streamed inline-shape request, and each hot network as a
// network request. Every one is a cache hit once the hot networks have
// been swept.
func hotCatalogue() []hotCall {
	var out []hotCall
	seen := map[string]bool{}
	for _, name := range hotNets {
		n, err := nets.ByName(name)
		if err != nil {
			panic(err) // hotNets names built-in networks
		}
		for _, l := range n.Scale(netScale).Layers {
			shape, ok := inlineShape(l)
			if !ok {
				continue
			}
			id := shapeKey(l)
			if seen[id] {
				continue
			}
			seen[id] = true
			for _, kind := range []string{kindLayer, kindFull, kindStream} {
				body := mustJSON(serve.LayerRequest{
					Arch:    archName,
					Shape:   &shape,
					Options: serve.SearchOptionsJSON{Budget: budget},
					Full:    kind == kindFull,
				})
				out = append(out, hotCall{
					call: call{key: kind + " " + name + "/" + l.Name, path: layerPath, body: body, stream: kind == kindStream},
					kind: kind,
				})
			}
		}
	}
	for _, name := range hotNets {
		out = append(out, hotCall{call: networkCall(name, 0, nil, false), kind: kindNetwork})
	}
	return out
}

// inlineShape returns the wire shape of l, or false when the wire form
// cannot express it (its defaults would change a field).
func inlineShape(l layer.Conv) (serve.ConvJSON, bool) {
	s := serve.ConvJSON{
		Name: l.Name,
		InH:  l.InH, InW: l.InW, InC: l.InC, OutC: l.OutC,
		KerH: l.KerH, KerW: l.KerW,
		StrideH: l.StrideH, StrideW: l.StrideW,
		PadH: l.PadH, PadW: l.PadW,
		ElemBytes: l.ElemBytes,
	}
	return s, s.Conv() == l
}

func shapeKey(l layer.Conv) string {
	l.Name = ""
	return fmt.Sprintf("%+v", l)
}

// mixLen is the length of the seeded serve-hot sequence; clients cycle
// through it if a run outlasts it.
const mixLen = 1 << 15

// hotMix draws the serve-hot request sequence from seed: a kind by
// mixShares, then a request of that kind uniformly.
func hotMix(seed int64, cat []hotCall) []int {
	byKind := map[string][]int{}
	for i, c := range cat {
		byKind[c.kind] = append(byKind[c.kind], i)
	}
	rng := rand.New(rand.NewSource(seed))
	mix := make([]int, mixLen)
	for i := range mix {
		u := rng.Intn(100)
		for _, s := range mixShares {
			if u < s.percent {
				idx := byKind[s.kind]
				mix[i] = idx[rng.Intn(len(idx))]
				break
			}
			u -= s.percent
		}
	}
	return mix
}
