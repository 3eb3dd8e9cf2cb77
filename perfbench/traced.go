package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/flexer-sched/flexer/internal/fault"
)

// deratePlan reproduces the known fused-gather defect: a fused segment
// whose gather starts inside a DMA derate window fails degraded
// verification.
const deratePlan = "core1@20000,dma@10000x1.5"

// servePass is what the traced pass of a workload saw at the serving
// layer.
type servePass struct {
	vars     counters
	queued   int64
	elapsed  map[int64]float64 // client span → response elapsed_ms
	fuseMS   float64
	segments int
	// perRequest is the mean time per completed request of the untraced
	// and the traced pass.
	untracedPer, tracedPer float64
}

// runTraced runs the workload untraced and then traced for half the
// time each, replays the workload's networks stage by stage and
// returns the per-layer metrics.
func (b *bench) runTraced() (map[string]float64, error) {
	calls, err := b.workloadCalls()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	half := max(b.dur/2, time.Second)
	var sp servePass
	var replayNets []string
	plans := map[string]*fault.Plan{}
	if b.workload == wServeHot {
		cat := hotCatalogue()
		mix := hotMix(b.seed, cat)
		h, err := b.warmHot(cat, tr)
		if err != nil {
			return nil, err
		}
		un, err := b.runHot(h, mix, clients(), half, nil)
		var tp *hotPass
		if err == nil {
			tr.on.Store(true)
			tp, err = b.runHot(h, mix, clients(), half, tr)
			tr.on.Store(false)
		}
		if cerr := h.t.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		sp = servePass{
			vars: tp.vars, queued: tp.queued, elapsed: tp.elapsed,
			untracedPer: ratio(un.wall.Seconds(), float64(un.completed)),
			tracedPer:   ratio(tp.wall.Seconds(), float64(tp.completed)),
		}
		replayNets = hotNets
	} else {
		un, err := b.runSweeps(calls, half, nil)
		if err != nil {
			return nil, err
		}
		tr.on.Store(true)
		tp, err := b.runSweeps(calls, half, tr)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		sp = servePass{
			vars: tp.vars, queued: tp.queued, elapsed: tp.elapsed,
			fuseMS: median(tp.fuseMS), segments: tp.segments,
			untracedPer: ratio(un.busy.Seconds(), float64(un.requests)),
			tracedPer:   ratio(tp.busy.Seconds(), float64(tp.requests)),
		}
		for _, c := range calls {
			replayNets = append(replayNets, c.network)
			plans[c.network] = c.plan
		}
	}
	serveSpans := tr.snapshot()

	st, err := replayNetworks(b, tr, replayNets, plans)
	if err != nil {
		return nil, err
	}
	derateFailures := 0
	if b.workload == wSweepFused {
		if derateFailures, err = b.derateProbe(); err != nil {
			return nil, err
		}
	}

	spans := tr.snapshot()
	replaySpans := spans[len(serveSpans):]
	writeStageTable(os.Stdout, st, replaySpans)
	if err := writeSpans(b.spansPath(), spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), b.spansPath())

	v := serveMetrics(serveSpans, sp)
	totals := stageTotals(replaySpans)
	stageMS := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += totals[n]
		}
		return ms(d)
	}
	v["search.layer_ms_p50"] = median(st.layerMS)
	v["search.layer_ms_p90"] = percentile(st.layerMS, 90)
	v["search.candidates"] = float64(st.candidates)
	v["search.pruned"] = float64(st.pruned)
	v["search.aborted"] = float64(st.aborted)
	v["search.prune_ratio"] = ratio(float64(st.pruned), float64(st.candidates))
	v["search.bound_ms"] = stageMS("search.LowerBound")
	v["search.fuse_ms"] = sp.fuseMS
	v["search.fused_segments"] = float64(sp.segments)
	v["tile.enumerate_ms"] = stageMS("tile.Enumerate")
	v["tile.tilings"] = float64(st.tilings)
	v["dfg.build_ms"] = stageMS("dfg.Build")
	v["dfg.ops"] = float64(st.ops)
	v["sched.ooo_ms"] = stageMS("sched.ooo")
	v["sched.ooo_runs"] = float64(st.oooRuns)
	v["sched.hinted_ms"] = stageMS("sched.hinted")
	v["sched.hinted_runs"] = float64(st.hintedRuns)
	v["sched.static_ms"] = stageMS("sched.static")
	v["sched.static_runs"] = float64(st.staticRuns)
	v["sched.ops_per_ms"] = ratio(float64(st.schedOps), stageMS("sched.ooo", "sched.hinted", "sched.static"))
	v["sched.repair_ms"] = stageMS("sched.Repair")
	v["sched.repairs"] = float64(st.repairs)
	v["sim.core_util"] = ratio(st.busyCycles, st.coreCycles)
	v["spm.spill_mb"] = float64(st.spillBytes) / 1e6
	v["spm.load_mb"] = float64(st.loadBytes) / 1e6
	v["verify.ms"] = stageMS("verify.Schedule", "verify.ScheduleFaults")
	v["verify.failures"] = float64(st.verifyFailures)
	v["verify.fused_derate_failures"] = float64(derateFailures)
	var buildUS []float64
	for _, s := range replaySpans {
		if s.Name == "trace.Build" {
			buildUS = append(buildUS, float64(s.dur())/float64(time.Microsecond))
		}
	}
	v["trace.build_us_p50"] = median(buildUS)
	v["trace.build_alloc_kb"] = median(st.traceAllocBytes) / 1024
	v["trace.overhead_pct"] = 100 * (ratio(sp.tracedPer, sp.untracedPer) - 1)
	fmt.Printf("tracing overhead: %.4f s per request untraced, %.4f s traced\n", sp.untracedPer, sp.tracedPer)
	return v, nil
}

// serveMetrics derives the serving-layer metrics from the handler
// spans of the traced pass and the server's counters.
func serveMetrics(spans []span, sp servePass) map[string]float64 {
	var handlerMS, outsideMS, respKB []float64
	for _, s := range spans {
		if s.Name != "serve.Handler" {
			continue
		}
		d := ms(s.dur())
		handlerMS = append(handlerMS, d)
		respKB = append(respKB, float64(s.Bytes)/1024)
		if e, ok := sp.elapsed[s.Req]; ok {
			outsideMS = append(outsideMS, d-e)
		}
	}
	if p, ok := tailPercentile(len(handlerMS)); ok {
		fmt.Printf("handler: n=%d tail p%g=%.3f ms\n", len(handlerMS), p, percentile(handlerMS, p))
	}
	c := sp.vars
	return map[string]float64{
		"serve.handler_ms_p50":        median(handlerMS),
		"serve.handler_ms_p99":        percentile(handlerMS, 99),
		"serve.outside_search_ms_p50": median(outsideMS),
		"serve.response_kb_p50":       median(respKB),
		"serve.progress_events":       float64(c.progress),
		"serve.errors":                float64(c.errors),
		"admission.preempted":         float64(c.preempted),
		"admission.requeued":          float64(c.requeued),
		"admission.shed":              float64(c.shed),
		"admission.queued_max":        float64(sp.queued),
		"cache.hits":                  float64(c.hits),
		"cache.misses":                float64(c.misses),
		"cache.coalesced":             float64(c.coalesced),
		"cache.hit_ratio":             ratio(float64(c.hits+c.coalesced), float64(c.hits+c.coalesced+c.misses)),
	}
}

// derateProbe re-issues the fused sweeps under deratePlan and counts
// the networks whose fused segments fail degraded verification. These
// requests are a diagnostic, not part of the workload's accounting.
func (b *bench) derateProbe() (int, error) {
	plan, err := fault.Parse(deratePlan)
	if err != nil {
		return 0, err
	}
	t, err := startTarget(nil)
	if err != nil {
		return 0, err
	}
	c := newConn(t.base, nil)
	failures := 0
	for _, n := range fusedNets {
		cl := networkCall(n, 1, plan, true)
		rep := c.post(cl.path, cl.body, cl.stream)
		switch {
		case rep.err == nil:
			fmt.Printf("derate probe %s %s: verifies\n", n, deratePlan)
		case strings.Contains(rep.err.Error(), "fails verification"):
			failures++
			fmt.Printf("derate probe %s %s: %v\n", n, deratePlan, rep.err)
		default:
			b.mismatch("derate probe %s: unexpected failure: %v", n, rep.err)
		}
	}
	c.close()
	return failures, t.close()
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
