// Command perfbench is the repository's benchmark. It drives flexerd's
// HTTP API, served in-process by serve.New on a loopback listener, with
// one of three workloads and prints every metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 1 --out a.json
//	.bench_build/perfbench compare a.json b.json
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced for half the time each, replays every DNN
// layer of the workload's networks stage by stage, prints the per-stage
// table and reports the per-layer metrics. README.md says why each
// workload and metric was chosen.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_wall_s", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"ooo_cycles", "cycles"},
	{"ooo_traffic_mb", "MB"},
	{"degraded_cycles", "cycles"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.outside_search_ms_p50", "ms"},
	{"serve.response_kb_p50", "KB"},
	{"serve.progress_events", "count"},
	{"serve.errors", "count"},
	{"admission.preempted", "count"},
	{"admission.requeued", "count"},
	{"admission.shed", "count"},
	{"admission.queued_max", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.coalesced", "count"},
	{"cache.hit_ratio", "ratio"},
	{"search.layer_ms_p50", "ms"},
	{"search.layer_ms_p90", "ms"},
	{"search.candidates", "count"},
	{"search.pruned", "count"},
	{"search.aborted", "count"},
	{"search.prune_ratio", "ratio"},
	{"search.bound_ms", "ms"},
	{"search.fuse_ms", "ms"},
	{"search.fused_segments", "count"},
	{"tile.enumerate_ms", "ms"},
	{"tile.tilings", "count"},
	{"dfg.build_ms", "ms"},
	{"dfg.ops", "count"},
	{"sched.ooo_ms", "ms"},
	{"sched.ooo_runs", "count"},
	{"sched.hinted_ms", "ms"},
	{"sched.hinted_runs", "count"},
	{"sched.static_ms", "ms"},
	{"sched.static_runs", "count"},
	{"sched.ops_per_ms", "1/ms"},
	{"sched.repair_ms", "ms"},
	{"sched.repairs", "count"},
	{"sim.core_util", "ratio"},
	{"spm.spill_mb", "MB"},
	{"spm.load_mb", "MB"},
	{"verify.ms", "ms"},
	{"verify.failures", "count"},
	{"verify.fused_derate_failures", "count"},
	{"trace.build_us_p50", "us"},
	{"trace.build_alloc_kb", "KB"},
	{"trace.overhead_pct", "%"},
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run: its request accounting and its output checks.
type bench struct {
	workload  string
	seed      int64
	dur       time.Duration
	attempted int
	failed    int
	// mismatches names every output check that failed.
	mismatches []string
	notes      int
}

// maxNotes bounds how many failure and mismatch lines a run prints.
const maxNotes = 40

// count accounts one request and reports whether it succeeded.
func (b *bench) count(c call, rep reply) bool {
	b.attempted++
	if rep.err != nil {
		b.failed++
		b.note("failed: %s: %v", c.key, rep.err)
		return false
	}
	return true
}

// correct reports whether the run had neither a failed request nor a
// failed output check.
func (b *bench) correct() bool { return b.failed == 0 && len(b.mismatches) == 0 }

// mismatch records a failed output check by name.
func (b *bench) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mismatches = append(b.mismatches, msg)
	b.note("mismatch: %s", msg)
}

func (b *bench) note(format string, args ...any) {
	b.notes++
	if b.notes <= maxNotes {
		fmt.Printf(format+"\n", args...)
	} else if b.notes == maxNotes+1 {
		fmt.Println("(further failures not printed)")
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: sweep-cold, sweep-fused-faults, serve-hot, or all of them")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "how long the timed phase runs")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", "", "also write the stamped result to this file")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		if *out != "" {
			fmt.Fprintln(os.Stderr, "perfbench: --out takes a single workload")
			os.Exit(2)
		}
		os.Exit(runAll(*seed, *seconds, *traced))
	}
	b := &bench{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	var vals map[string]float64
	var err error
	if *traced == 1 {
		vals, err = b.runTraced()
	} else {
		vals, err = b.runTimed()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	res := result{
		Correct:   b.correct(),
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-32s %16.6f %s\n", d.name, v, d.unit)
	}
	host := currentHost()
	hb, _ := json.Marshal(host) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hb)
	if *out != "" {
		rec := record{Host: host, Workload: b.workload, Seed: b.seed, Trace: *traced, Result: res}
		rb, _ := json.MarshalIndent(rec, "", "  ") // plain data always marshals
		if err := os.WriteFile(*out, append(rb, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res) // plain data always marshals
	fmt.Println(string(line))
}

// runAll runs every workload, each in a child process of its own so
// that each reports its own memory figures, and prints their combined
// result with metrics named <workload>/<metric>.
func runAll(seed int64, seconds, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range []string{wSweepCold, wSweepFused, wServeHot} {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: result line: %v\n", w, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, m := range r.Metrics {
			all.Metrics[w+"/"+name] = m
		}
	}
	line, _ := json.Marshal(all) // plain data always marshals
	fmt.Println(string(line))
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	a, err := readRecord(args[0])
	if err == nil {
		var b record
		if b, err = readRecord(args[1]); err == nil {
			err = compareRecords(os.Stdout, a, b)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// workloadCalls returns the sweep requests of a sweep workload.
func (b *bench) workloadCalls() ([]call, error) {
	switch b.workload {
	case wSweepCold:
		return coldCalls(), nil
	case wSweepFused:
		return fusedCalls(b.seed), nil
	case wServeHot:
		return nil, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", b.workload, wSweepCold, wSweepFused, wServeHot)
}

// clients is the serve-hot client count: one per CPU, at most two.
func clients() int { return min(2, runtime.NumCPU()) }

// runTimed measures the end-to-end metrics with tracing off.
func (b *bench) runTimed() (map[string]float64, error) {
	calls, err := b.workloadCalls()
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	if b.workload == wServeHot {
		cat := hotCatalogue()
		mix := hotMix(b.seed, cat)
		var h *hotServer
		var setups, sweeps []float64
		for i := 0; i < hotSetupReps; i++ {
			if h != nil {
				if err := h.t.close(); err != nil {
					return nil, err
				}
			}
			if h, err = b.warmHot(cat, nil); err != nil {
				return nil, err
			}
			setups = append(setups, h.setup.Seconds())
			sweeps = append(sweeps, h.sweeps.Seconds())
		}
		p, err := b.runHot(h, mix, clients(), b.dur, nil)
		if cerr := h.t.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		v["setup_s"] = median(setups)
		v["search_wall_s"] = median(sweeps)
		v["req_per_s"] = ratio(float64(p.completed), p.wall.Seconds())
		setLatency(v, p.latMS)
		v["alloc_mb"] = ratio(float64(p.alloc), float64(p.attempted)) * 1000 / 1e6
		setTotals(v, h.totals)
	} else {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			d, err := b.sweepSetup()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		p, err := b.runSweeps(calls, b.dur, nil)
		if err != nil {
			return nil, err
		}
		v["setup_s"] = median(setups)
		v["search_wall_s"] = median(p.walls)
		v["req_per_s"] = float64(p.requests) / p.busy.Seconds()
		setLatency(v, p.latMS)
		v["alloc_mb"] = float64(p.alloc) / 1e6
		setTotals(v, p.totals)
	}
	v["ok_ratio"] = float64(b.attempted-b.failed) / float64(max(b.attempted, 1))
	v["max_rss_mb"] = maxRSSMB()
	return v, nil
}

// setLatency reports the median and p99 request latency and prints the
// sample count with the highest percentile that has at least ten
// samples beyond it.
func setLatency(v map[string]float64, latMS []float64) {
	v["latency_p50_ms"] = median(latMS)
	v["latency_p99_ms"] = percentile(latMS, 99)
	if p, ok := tailPercentile(len(latMS)); ok {
		fmt.Printf("latency: n=%d p50=%.3f ms p99=%.3f ms tail p%g=%.3f ms\n",
			len(latMS), v["latency_p50_ms"], v["latency_p99_ms"], p, percentile(latMS, p))
	} else {
		fmt.Printf("latency: n=%d p50=%.3f ms p99=%.3f ms (too few samples for a tail percentile)\n",
			len(latMS), v["latency_p50_ms"], v["latency_p99_ms"])
	}
}

// setTotals sums the simulated end-to-end totals of the networks a
// workload returned.
func setTotals(v map[string]float64, totals map[string]netTotals) {
	var cycles, traffic, degraded int64
	for _, t := range totals {
		cycles += t.cycles
		traffic += t.traffic
		degraded += t.degraded
	}
	v["ooo_cycles"] = float64(cycles)
	v["ooo_traffic_mb"] = float64(traffic) / 1e6
	v["degraded_cycles"] = float64(degraded)
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// spansPath is where a traced run writes its spans.
func (b *bench) spansPath() string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
}
