package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flexer-sched/flexer/internal/serve"
)

// Workload names.
const (
	wSweepCold  = "sweep-cold"
	wSweepFused = "sweep-fused-faults"
	wServeHot   = "serve-hot"
)

// setupReps is how many times a sweep workload sets up its server to
// report a median set-up time; one set-up takes about a millisecond.
// hotSetupReps is the same for serve-hot, whose set-up includes warming
// the hot set.
const (
	setupReps    = 51
	hotSetupReps = 3
)

// netTotals is what one network response reports end to end.
type netTotals struct {
	cycles, traffic, degraded int64
}

// expectedTotals pins every sweep's simulated totals. The four
// BENCH_0009 values (vgg16, resnet50, squeezenet, vgg16+fused) are the
// committed record; the others were measured by this benchmark and must
// repeat exactly across runs and seeds.
var expectedTotals = map[string]netTotals{
	"vgg16":            {cycles: 1266103, traffic: 33585056},
	"resnet50":         {cycles: 1696177, traffic: 49618976},
	"squeezenet":       {cycles: 115609, traffic: 2960842},
	"yolov2":           {cycles: 3437763, traffic: 105344298},
	"vgg16+fused":      {cycles: 1261252, traffic: 33466154},
	"resnet50+fused":   {cycles: 1661055, traffic: 48495426},
	"squeezenet+fused": {cycles: 114043, traffic: 2921930},
}

// checkNetwork decodes a network response and checks its totals. It
// returns false, after recording the mismatch by name, on a wrong
// result.
func (b *bench) checkNetwork(c call, body []byte) (netTotals, serve.NetworkResponse, bool) {
	var nr serve.NetworkResponse
	if err := json.Unmarshal(unwrapResult(body, c.stream), &nr); err != nil {
		b.mismatch("%s: undecodable response: %v", c.key, err)
		return netTotals{}, nr, false
	}
	got := netTotals{cycles: nr.OoOCycles, traffic: nr.OoOTrafficBytes, degraded: nr.DegradedCycles}
	want := expectedTotals[c.key]
	ok := true
	if got.cycles != want.cycles || got.traffic != want.traffic {
		b.mismatch("%s: totals %d cycles / %d B, want %d / %d", c.key, got.cycles, got.traffic, want.cycles, want.traffic)
		ok = false
	}
	if c.plan != nil && got.degraded <= 0 {
		b.mismatch("%s: no degraded cycles under fault plan %s", c.key, c.plan)
		ok = false
	}
	if c.fused && nr.FuseDepth != 1 {
		b.mismatch("%s: fuse_depth %d echoed, want 1", c.key, nr.FuseDepth)
		ok = false
	}
	if c.plan == nil {
		got.degraded = got.cycles // no faults: the machine runs the nominal schedule
	}
	return got, nr, ok
}

// unwrapResult returns the payload of a response: the document itself,
// or the network or layer result inside a stream's terminal event.
func unwrapResult(body []byte, stream bool) []byte {
	if !stream {
		return body
	}
	var ev serve.StreamEvent
	if json.Unmarshal(body, &ev) != nil {
		return nil
	}
	var v any = ev.LayerResult
	if ev.NetworkResult != nil {
		v = ev.NetworkResult
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

// sweepPass is what a run of whole sweeps measured.
type sweepPass struct {
	sweeps int
	// walls (seconds per sweep: its summed request latency) and latMS
	// (per network request) exclude the time stolen by the host.
	walls    []float64
	latMS    []float64
	busy     time.Duration
	requests int
	alloc    uint64 // heap bytes allocated per sweep
	totals   map[string]netTotals
	fuseMS   []float64 // per sweep: summed last layer_done → result time
	segments int       // fused segments per sweep
	vars     counters  // summed over the pass's servers (traced passes)
	queued   int64
	elapsed  map[int64]float64 // client span → response elapsed_ms
}

// runSweeps repeats a sweep, each on a fresh server with a cold cache,
// until dur has passed (at least once). One client sends the sweep's
// requests one after another. With tr, the pass is traced.
func (b *bench) runSweeps(calls []call, dur time.Duration, tr *tracer) (*sweepPass, error) {
	p := &sweepPass{totals: map[string]netTotals{}, elapsed: map[int64]float64{}}
	var wrap func(h http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrap
	}
	alloc0 := totalAlloc()
	start := time.Now()
	for p.sweeps == 0 || time.Since(start) < dur {
		t, err := startTarget(wrap)
		if err != nil {
			return nil, err
		}
		var poll *queuePoller
		if tr != nil {
			poll = startQueuePoller(t.base)
		}
		c := newConn(t.base, tr)
		var wall, raw time.Duration
		var fuse float64
		for _, cl := range calls {
			// A network request runs for seconds, long enough to measure
			// the time the host stole while it ran.
			stolen0 := stolenSeconds()
			rep := c.post(cl.path, cl.body, cl.stream)
			lat := unstolen(rep.latency, stolenSeconds()-stolen0)
			raw += rep.latency
			wall += lat
			p.latMS = append(p.latMS, ms(lat))
			if !b.count(cl, rep) {
				continue
			}
			got, nr, ok := b.checkNetwork(cl, rep.body)
			if prev, seen := p.totals[cl.key]; ok && seen && prev != got {
				b.mismatch("%s: totals changed between sweeps: %+v then %+v", cl.key, prev, got)
				ok = false
			}
			if !ok {
				b.failed++
				continue
			}
			p.requests++
			p.totals[cl.key] = got
			if p.sweeps == 0 {
				p.segments += len(nr.Segments)
			}
			if cl.stream && rep.lastLayerDone > 0 {
				fuse += ms(rep.latency - rep.lastLayerDone)
			}
			if tr != nil {
				p.elapsed[rep.span] = elapsedMS(rep.body)
			}
		}
		fmt.Printf("sweep %d: %.3f s, %.3f s of it stolen by the host\n", p.sweeps+1, raw.Seconds(), (raw - wall).Seconds())
		p.walls = append(p.walls, wall.Seconds())
		p.fuseMS = append(p.fuseMS, fuse)
		p.busy += wall
		p.sweeps++
		if tr != nil {
			p.queued = max(p.queued, poll.stop())
			var v debugVars
			err = c.get("/debug/vars", &v)
			p.vars = p.vars.add(v.counters())
		}
		c.close()
		if cerr := t.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	p.alloc = (totalAlloc() - alloc0) / uint64(p.sweeps)
	return p, nil
}

// sweepSetup measures one sweep workload set-up: generating the sweep's
// requests from the seed, a server, and a client that has checked the
// server offers what the sweep names. Each timed sweep then gets a
// fresh server with a cold cache. Tearing the server down again is not
// part of set-up.
func (b *bench) sweepSetup() (time.Duration, error) {
	start := time.Now()
	calls, err := b.workloadCalls()
	if err != nil {
		return 0, err
	}
	t, err := startTarget(nil)
	if err != nil {
		return 0, err
	}
	c := newConn(t.base, nil)
	var presets serve.PresetsResponse
	err = c.get("/v1/presets", &presets)
	if err == nil {
		err = presetsCover(presets, calls)
	}
	d := time.Since(start)
	c.close()
	if cerr := t.close(); err == nil {
		err = cerr
	}
	return d, err
}

func presetsCover(p serve.PresetsResponse, calls []call) error {
	have := map[string]bool{}
	for _, a := range p.Archs {
		have["arch "+a.Name] = true
	}
	for _, n := range p.Networks {
		have["network "+n.Name] = true
	}
	if !have["arch "+archName] {
		return fmt.Errorf("server does not offer %s", archName)
	}
	for _, c := range calls {
		if c.network != "" && !have["network "+c.network] {
			return fmt.Errorf("server does not offer network %s", c.network)
		}
	}
	return nil
}

// hotServer is a server warmed with the serve-hot set, plus the
// response every catalogue request got during the warm-up.
type hotServer struct {
	t      *target
	cat    []hotCall
	expect [][]byte
	// setup and sweeps (the warm-up sweeps' summed latency) exclude the
	// time stolen by the host.
	setup  time.Duration
	sweeps time.Duration
	totals map[string]netTotals
}

// warmHot starts a server and warms it: the hot networks' sweeps, then
// every catalogue request once, whose response becomes the expected
// one.
func (b *bench) warmHot(cat []hotCall, tr *tracer) (*hotServer, error) {
	start := time.Now()
	stolen0 := stolenSeconds()
	var wrap func(h http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrap
	}
	t, err := startTarget(wrap)
	if err != nil {
		return nil, err
	}
	h := &hotServer{t: t, cat: cat, expect: make([][]byte, len(cat)), totals: map[string]netTotals{}}
	c := newConn(t.base, nil)
	defer c.close()
	for _, n := range hotNets {
		cl := networkCall(n, 0, nil, false)
		rep := c.post(cl.path, cl.body, cl.stream)
		h.sweeps += rep.latency
		if b.count(cl, rep) {
			got, _, ok := b.checkNetwork(cl, rep.body)
			if !ok {
				b.failed++
			}
			h.totals[cl.key] = got
		}
	}
	h.sweeps = unstolen(h.sweeps, stolenSeconds()-stolen0)
	for i, hc := range cat {
		rep := c.post(hc.path, hc.body, hc.stream)
		if b.count(hc.call, rep) {
			h.expect[i] = bytes.Clone(rep.body)
		}
	}
	stolen := stolenSeconds() - stolen0
	fmt.Printf("warm-up: %.3f s, %.3f s of it stolen by the host\n", time.Since(start).Seconds(), stolen)
	h.setup = unstolen(time.Since(start), stolen)
	return h, nil
}

// stealQuietS is the time the host may always steal in one second of a
// serve-hot phase (averaged over the CPUs) for the requests that end in
// that second to count toward the latency percentiles.
const stealQuietS = 0.01

// quietSeconds takes the stolen time read at each whole second of a
// phase and reports which of its seconds count toward the latency
// percentiles: those in which the host stole at most stealQuietS or at
// most what it stole in the phase's median second. At least half of the
// seconds always count, and which ones depends only on the host, never
// on the latencies themselves.
func quietSeconds(marks []float64) []bool {
	steal := make([]float64, len(marks)-1)
	for k := range steal {
		steal[k] = marks[k+1] - marks[k]
	}
	limit := max(stealQuietS, median(slices.Clone(steal)))
	quiet := make([]bool, len(steal))
	for k, s := range steal {
		quiet[k] = s <= limit
	}
	return quiet
}

// hotPass is what one timed serve-hot phase measured.
type hotPass struct {
	wall time.Duration // less the time stolen by the host
	// latMS are the latencies of the requests that ended in the phase's
	// quiet seconds (see quietSeconds).
	latMS     []float64
	attempted int
	completed int
	alloc     uint64 // heap bytes allocated over the phase
	vars      counters
	queued    int64
	elapsed   map[int64]float64
}

// hotOutcome is one client's share of a serve-hot phase.
type hotOutcome struct {
	latMS     []float64
	second    []int // the whole second of the phase each request ended in
	attempted int
	failed    int
	errs      []string // failed requests
	diffs     []string // wrong responses, a subset of the failed ones
	elapsed   map[int64]float64
}

// runHot replays the seeded mix against a warm server from the
// clients for dur. Every response must equal its warm-up response.
func (b *bench) runHot(h *hotServer, mix []int, clients int, dur time.Duration, tr *tracer) (*hotPass, error) {
	c := newConn(h.t.base, nil)
	defer c.close()
	var v0 debugVars
	if err := c.get("/debug/vars", &v0); err != nil {
		return nil, err
	}
	var poll *queuePoller
	if tr != nil {
		poll = startQueuePoller(h.t.base)
	}
	alloc0 := totalAlloc()
	var next atomic.Int64
	outs := make([]hotOutcome, clients)
	var wg sync.WaitGroup
	// marks[k] is the stolen time at the start of the phase's second k.
	marks := []float64{stolenSeconds()}
	start := time.Now()
	deadline := start.Add(dur)
	for k := range outs {
		wg.Add(1)
		go func(o *hotOutcome) {
			defer wg.Done()
			o.elapsed = map[int64]float64{}
			cc := newConn(h.t.base, tr)
			defer cc.close()
			for time.Now().Before(deadline) {
				i := mix[int(next.Add(1)-1)%len(mix)]
				hc := h.cat[i]
				rep := cc.post(hc.path, hc.body, hc.stream)
				o.attempted++
				o.latMS = append(o.latMS, ms(rep.latency))
				o.second = append(o.second, int(time.Since(start)/time.Second))
				switch {
				case rep.err != nil:
					o.failed++
					o.errs = append(o.errs, fmt.Sprintf("%s: %v", hc.key, rep.err))
				case !sameIgnoringElapsed(rep.body, h.expect[i]):
					o.failed++
					o.diffs = append(o.diffs, fmt.Sprintf("%s: response differs from its warm-up response", hc.key))
				default:
					if tr != nil {
						o.elapsed[rep.span] = elapsedMS(rep.body)
					}
				}
			}
		}(&outs[k])
	}
	for k := 1; time.Duration(k)*time.Second <= dur; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
		marks = append(marks, stolenSeconds())
	}
	wg.Wait()
	p := &hotPass{wall: time.Since(start), alloc: totalAlloc() - alloc0, elapsed: map[int64]float64{}}
	end := stolenSeconds()
	if len(marks) == 1 {
		marks = append(marks, end) // a phase shorter than a second is one second
	}
	stolen := end - marks[0]
	fmt.Printf("timed phase: %.3f s, %.3f s of it stolen by the host\n", p.wall.Seconds(), stolen)
	p.wall = unstolen(p.wall, stolen)
	if poll != nil {
		p.queued = poll.stop()
	}
	// Requests that end after the last whole second belong to it.
	quiet := quietSeconds(marks)
	var all []float64
	for _, o := range outs {
		for j, l := range o.latMS {
			if quiet[min(o.second[j], len(quiet)-1)] {
				p.latMS = append(p.latMS, l)
			}
		}
		all = append(all, o.latMS...)
		p.attempted += o.attempted
		p.completed += o.attempted - o.failed
		b.attempted += o.attempted
		b.failed += o.failed
		for _, e := range o.errs {
			b.note("failed: %s", e)
		}
		for _, d := range o.diffs {
			b.mismatch("%s", d)
		}
		for k, v := range o.elapsed {
			p.elapsed[k] = v
		}
	}
	var v1 debugVars
	if err := c.get("/debug/vars", &v1); err != nil {
		return nil, err
	}
	kept := 0
	for _, q := range quiet {
		if q {
			kept++
		}
	}
	fmt.Printf("latency: all %d requests p50=%.3f ms p99=%.3f ms; percentiles below over the %d of %d quiet seconds\n",
		len(all), median(all), percentile(all, 99), kept, len(quiet))
	p.vars = v1.counters().sub(v0.counters())
	if p.vars.misses != 0 {
		b.mismatch("serve-hot: %d cache misses in the timed phase, want 0", p.vars.misses)
	}
	return p, nil
}

// queuePoller samples the server's admission queue length.
type queuePoller struct {
	done chan struct{}
	max  chan int64
}

// startQueuePoller polls /debug/vars on its own connection every
// 20 ms until stop.
func startQueuePoller(base string) *queuePoller {
	q := &queuePoller{done: make(chan struct{}), max: make(chan int64, 1)}
	go func() {
		c := newConn(base, nil)
		defer c.close()
		var peak int64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.done:
				q.max <- peak
				return
			case <-tick.C:
				var v debugVars
				if c.get("/debug/vars", &v) == nil { // a missed sample only lowers the peak's resolution
					peak = max(peak, v.Queued)
				}
			}
		}
	}()
	return q
}

// stop ends the polling and returns the longest queue seen.
func (q *queuePoller) stop() int64 {
	close(q.done)
	return <-q.max
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
