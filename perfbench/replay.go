package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/trace"
	"github.com/flexer-sched/flexer/internal/verify"
)

// The stage replay times each module of the layer search from outside:
// for every DNN layer it runs the real search (search.SearchLayerCtx,
// pruned and parallel) and then replays that search's work sequentially
// and unpruned through the modules' public functions. Unpruned means it
// schedules every enumerated tiling to completion, so its stage times
// are an upper bound on what the pruned search spends; the search's own
// pruned and aborted counts are reported beside them. The replay must
// reproduce the search's best OoO schedule exactly.

// Stage span names, in stage-table column order.
var replayStages = []struct{ span, column string }{
	{"tile.Enumerate", "enum"},
	{"tile.NewGrid", "grid"},
	{"search.LowerBound", "bound"},
	{"dfg.Build", "dfg"},
	{"sched.ooo", "ooo"},
	{"sched.hinted", "hinted"},
	{"loop.Order", "order"},
	{"sched.static", "static"},
	{"verify.Schedule", "verify"},
	{"trace.Build", "trace"},
	{"sched.Repair", "repair"},
	{"verify.ScheduleFaults", "vfault"},
}

// hintedDataflows mirrors the search: the first three dataflows of the
// baseline set also seed a hinted OoO run.
const hintedDataflows = 3

// layerRow is one DNN layer of the stage table.
type layerRow struct {
	network, layer string
	req            int64 // the layer's span request ID
	hit            bool  // a repeated shape: served by the search cache
	searchMS       float64
	candidates     int
	pruned         int
	aborted        int
	cycles         int64 // the search's best OoO cycles
	replayCycles   int64 // the replay's
}

// replayStats accumulates the replay's counts; its times come from the
// spans.
type replayStats struct {
	rows       []layerRow
	layerMS    []float64 // search wall time per searched (missed) layer
	candidates int
	pruned     int
	aborted    int

	tilings    int
	ops        int64 // DFG ops built
	schedOps   int64 // ops scheduled, summed over scheduler runs
	oooRuns    int
	hintedRuns int
	staticRuns int
	repairs    int

	busyCycles, coreCycles float64 // of the best OoO schedules
	spillBytes, loadBytes  int64

	traceAllocBytes []float64 // heap bytes per trace.Build call
	verifyFailures  int
}

// replayNetworks searches and replays every layer of the named scale-4
// networks on arch5. plans, when non-nil, gives each network's fault
// plan, which the search evaluates and the replay repairs around.
func replayNetworks(b *bench, tr *tracer, names []string, plans map[string]*fault.Plan) (*replayStats, error) {
	a, err := arch.Preset(archName)
	if err != nil {
		return nil, err
	}
	m := model.New(a)
	st := &replayStats{}
	for _, name := range names {
		n, err := nets.ByName(name)
		if err != nil {
			return nil, err
		}
		opts := search.Options{
			Arch:      a,
			Budget:    search.QuickBudget(),
			Metric:    search.MetricDefault(),
			Priority:  sched.PriorityDefault,
			MemPolicy: spm.PolicyFlexer,
			Cache:     search.NewCache(),
			FaultPlan: plans[name],
		}
		for _, l := range n.Scale(netScale).Layers {
			if err := replayLayer(b, tr, st, name, l, opts, m); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// timed runs f inside a span named name under parent.
func timed(tr *tracer, parent openSpan, name string, f func()) {
	sp := tr.begin(name, parent.id, parent.req)
	f()
	tr.end(sp)
}

func replayLayer(b *bench, tr *tracer, st *replayStats, network string, l layer.Conv, opts search.Options, m model.Model) error {
	root := tr.begin("replay.layer", 0, 0)
	defer tr.end(root)
	row := layerRow{network: network, layer: l.Name, req: root.req}

	var misses atomic.Int64
	opts.CacheMisses = &misses
	start := time.Now()
	sp := tr.begin("search.SearchLayerCtx", root.id, root.req)
	lr, err := search.SearchLayerCtx(context.Background(), l, opts)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("search %s/%s: %w", network, l.Name, err)
	}
	row.cycles = lr.BestOoO.LatencyCycles
	if misses.Load() == 0 {
		row.hit = true
		row.replayCycles = row.cycles
		st.rows = append(st.rows, row)
		return nil
	}
	row.searchMS = float64(time.Since(start)) / float64(time.Millisecond)
	row.candidates, row.pruned, row.aborted = lr.CandidatesEnumerated, lr.CandidatesPruned, lr.SchedulesAborted
	st.layerMS = append(st.layerMS, row.searchMS)
	st.candidates += lr.CandidatesEnumerated
	st.pruned += lr.CandidatesPruned
	st.aborted += lr.SchedulesAborted

	a := opts.Arch
	bud := opts.Budget
	var tilings []tile.Factors
	timed(tr, root, "tile.Enumerate", func() { tilings = enumerate(l, a, bud) })
	st.tilings += len(tilings)
	if len(tilings) != lr.CandidatesEnumerated {
		b.mismatch("replay %s/%s enumerates %d tilings, search %d", network, l.Name, len(tilings), lr.CandidatesEnumerated)
	}
	base := sched.Config{
		Arch:             a,
		Model:            m,
		Priority:         opts.Priority,
		MemPolicy:        opts.MemPolicy,
		MaxReadyWindow:   bud.MaxReadyWindow,
		MaxCandidateSets: bud.MaxCandidateSets,
	}
	metric := opts.Metric
	score := func(r *sched.Result) float64 { return metric.Score(r.LatencyCycles, r.TrafficBytes()) }
	run := func(parent openSpan, name string, gr *dfg.Graph, cfg sched.Config) *sched.Result {
		var r *sched.Result
		var err error
		timed(tr, parent, name, func() { r, err = sched.Schedule(gr, cfg) })
		st.schedOps += int64(len(gr.Ops))
		if err != nil {
			return nil
		}
		return r
	}

	var best *sched.Result
	var bestGraph *dfg.Graph
	for _, f := range tilings {
		ts := tr.begin("tiling", root.id, root.req)
		var grid *tile.Grid
		var err error
		timed(tr, ts, "tile.NewGrid", func() { grid, err = tile.NewGrid(l, f) })
		if err != nil {
			tr.end(ts)
			continue
		}
		var bound search.Bound
		timed(tr, ts, "search.LowerBound", func() { bound = search.LowerBound(grid, m, a.Cores) })
		var gr *dfg.Graph
		timed(tr, ts, "dfg.Build", func() { gr = dfg.Build(grid, m) })
		st.ops += int64(len(gr.Ops))

		ooo := run(ts, "sched.ooo", gr, base)
		st.oooRuns++
		if ooo == nil {
			// The search skips a tiling whose unhinted run fails.
			tr.end(ts)
			continue
		}
		var static *sched.Result
		for i, df := range loop.Canonical() {
			var order []int
			timed(tr, ts, "loop.Order", func() { order = loop.Order(gr, df) })
			cfg := base
			cfg.Order = order
			if r := run(ts, "sched.static", gr, cfg); r != nil && (static == nil || score(r) < score(static)) {
				static = r
			}
			st.staticRuns++
			if bud.HintedOoO && i < hintedDataflows {
				hcfg := base
				hcfg.Hint = order
				if h := run(ts, "sched.hinted", gr, hcfg); h != nil && score(h) < score(ooo) {
					ooo = h
				}
				st.hintedRuns++
			}
		}
		tr.end(ts)
		if ooo.LatencyCycles < bound.Cycles || ooo.TrafficBytes() < bound.Traffic {
			b.mismatch("replay %s/%s tiling %s: schedule (%d cycles, %d B) beats its lower bound (%d, %d)",
				network, l.Name, f, ooo.LatencyCycles, ooo.TrafficBytes(), bound.Cycles, bound.Traffic)
		}
		if static == nil {
			continue // the search drops a tiling without a static schedule
		}
		if best == nil || score(ooo) < score(best) {
			best, bestGraph = ooo, gr
		}
	}
	if best == nil {
		b.mismatch("replay %s/%s found no schedule", network, l.Name)
		st.rows = append(st.rows, row)
		return nil
	}
	row.replayCycles = best.LatencyCycles
	if best.LatencyCycles != lr.BestOoO.LatencyCycles || best.TrafficBytes() != lr.BestOoO.TrafficBytes() || best.Factors != lr.BestOoO.Factors {
		b.mismatch("replay %s/%s best OoO %s %d cycles %d B, search %s %d cycles %d B", network, l.Name,
			best.Factors, best.LatencyCycles, best.TrafficBytes(),
			lr.BestOoO.Factors, lr.BestOoO.LatencyCycles, lr.BestOoO.TrafficBytes())
	}
	var verr error
	timed(tr, root, "verify.Schedule", func() { verr = verify.Schedule(bestGraph, best, a) })
	if verr != nil {
		st.verifyFailures++
		b.mismatch("replay %s/%s best schedule fails verification: %v", network, l.Name, verr)
	}
	for _, full := range []bool{false, true} {
		before := totalAlloc()
		timed(tr, root, "trace.Build", func() { _ = trace.Build(best, full) })
		st.traceAllocBytes = append(st.traceAllocBytes, float64(totalAlloc()-before))
	}
	if plan := opts.FaultPlan; !plan.Empty() {
		var deg *sched.Result
		var err error
		timed(tr, root, "sched.Repair", func() { deg, err = sched.Repair(bestGraph, best, plan, base) })
		st.repairs++
		switch {
		case err != nil:
			b.mismatch("replay %s/%s repair: %v", network, l.Name, err)
		case lr.Degraded == nil || deg.LatencyCycles != lr.Degraded.LatencyCycles:
			b.mismatch("replay %s/%s degraded schedule differs from the search's", network, l.Name)
		default:
			timed(tr, root, "verify.ScheduleFaults", func() { verr = verify.ScheduleFaults(bestGraph, deg, a, plan) })
			if verr != nil {
				st.verifyFailures++
				b.mismatch("replay %s/%s degraded schedule fails verification: %v", network, l.Name, verr)
			}
		}
	}

	for _, op := range best.OpRecords {
		st.busyCycles += float64(op.End - op.Start)
	}
	st.coreCycles += float64(a.Cores) * float64(best.LatencyCycles)
	st.spillBytes += best.SpillBytes
	st.loadBytes += best.LoadBytes
	st.rows = append(st.rows, row)
	return nil
}

// enumerate mirrors the search's tiling enumeration: it relaxes the
// op-count cap until some tiling is feasible.
func enumerate(l layer.Conv, a arch.Config, b search.Budget) []tile.Factors {
	lim := tile.EnumLimits{
		SPMBytes:        a.SPMBytes,
		Cores:           a.Cores,
		MaxOps:          b.MaxOps,
		MaxTilings:      b.MaxTilings,
		MaxValuesPerDim: b.MaxValuesPerDim,
	}
	for i := 0; i < 8; i++ {
		if ts := tile.Enumerate(l, lim); len(ts) > 0 {
			return ts
		}
		lim.MaxOps *= 2
		lim.MaxValuesPerDim += 4
	}
	return nil
}

// stageTotals sums self time per span name.
func stageTotals(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeStageTable prints one row per DNN layer with the self time of
// each replayed stage in milliseconds.
func writeStageTable(w io.Writer, st *replayStats, spans []span) {
	self := selfTimes(spans)
	perReq := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]time.Duration{}
		}
		perReq[s.Req][s.Name] += self[s.ID]
	}
	fmt.Fprintln(w, "stage replay (unpruned, sequential; search columns are the real pruned search; stage columns are self ms):")
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', tabwriter.AlignRight)
	head := []string{"network", "layer", "search_ms", "cand", "pruned", "aborted"}
	for _, s := range replayStages {
		head = append(head, s.column)
	}
	head = append(head, "best_cycles", "replay")
	fmt.Fprintln(tw, strings.Join(head, "\t")+"\t")
	for _, r := range st.rows {
		cells := []string{r.network, r.layer}
		if r.hit {
			cells = append(cells, "hit", "-", "-", "-")
			for range replayStages {
				cells = append(cells, "-")
			}
		} else {
			cells = append(cells, fmt.Sprintf("%.1f", r.searchMS), fmt.Sprint(r.candidates), fmt.Sprint(r.pruned), fmt.Sprint(r.aborted))
			for _, s := range replayStages {
				cells = append(cells, fmt.Sprintf("%.2f", ms(perReq[r.req][s.span])))
			}
		}
		verdict := "="
		if r.replayCycles != r.cycles {
			verdict = fmt.Sprint(r.replayCycles)
		}
		cells = append(cells, fmt.Sprint(r.cycles), verdict)
		fmt.Fprintln(tw, strings.Join(cells, "\t")+"\t")
	}
	tw.Flush()
	totals := stageTotals(spans)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprint(w, "stage self-time totals (ms):")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%.1f", n, ms(totals[n]))
	}
	fmt.Fprintln(w)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
