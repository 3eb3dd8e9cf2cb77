// Package serve turns the Flexer layer/network search into a
// long-running service: it wraps search.SearchLayerCtx and
// search.SearchNetworkCtx with a shared result cache (optionally
// persisted to disk across restarts), a bounded worker pool with
// per-request timeouts, a multi-tenant admission scheduler
// (internal/serve/admission) with weighted fair queues, priority
// tiers and candidate-boundary preemption that sheds excess load with
// 429 + Retry-After, and an expvar-style observability surface, and
// exposes the whole thing as an http.Handler.
//
// Requests name their tenant via the "tenant" body field or the
// X-Flexer-Tenant header; single-layer requests run at the
// interactive tier and network sweeps at the batch tier, so an
// interactive arrival overtakes queued sweeps and — when every slot
// is busy — preempts a running one at its next candidate boundary.
// The preempted sweep is re-enqueued and restarted transparently; its
// final result is identical to an uninterrupted run.
//
// The daemon binary cmd/flexerd is a thin wrapper around this package;
// Client is the matching Go client. The HTTP surface:
//
//	POST /v1/schedule/layer    schedule one layer (cached, bounded)
//	POST /v1/schedule/network  schedule a whole network
//	POST /v1/schedule/*?stream=1  same, streaming NDJSON progress events
//	GET  /v1/presets           hardware presets, networks, option enums
//	GET  /v1/healthz           liveness probe (also legacy /healthz)
//	GET  /v1/readyz            readiness: 503 while warming or draining
//	GET  /v1/cluster/snapshot  one peer's cache shard (cluster mode)
//	GET  /debug/vars           metrics (expvar JSON)
//	GET  /debug/pprof/...      profiling, when Config.EnablePprof is set
//
// With Config.Cluster set, schedule requests are additionally routed
// across the peer set by consistent hashing with health-gated failover
// (see cluster.go and internal/cluster).
//
// Request and response bodies are documented in docs/API.md; schedule
// payloads reuse the trace package's JSON schema, so a daemon response
// is interchangeable with the flexer CLI's -json export.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/flexer-sched/flexer/internal/cluster"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// Config tunes a Server. The zero value is a working quick-budget
// configuration.
type Config struct {
	// CacheSize bounds the shared result cache in entries
	// (0 = search.DefaultCacheCapacity; negative = unbounded).
	CacheSize int
	// Workers is the maximum number of concurrently running searches;
	// further requests queue until a slot frees (0 = GOMAXPROCS).
	Workers int
	// MaxQueueDepth bounds how many schedule requests may wait for a
	// worker slot per tenant; beyond it the server sheds the tenant's
	// load with 429 and a Retry-After estimate instead of letting
	// every request camp on the pool until its deadline 504s (0 = 4x
	// Workers; negative = unlimited, the pre-admission-control
	// behavior).
	MaxQueueDepth int
	// Tenants pre-registers admission tenants with non-default
	// weights, concurrency quotas or forced tiers; unknown tenants are
	// created on first use with weight 1 and no quota.
	Tenants []admission.TenantConfig
	// DefaultTenant is the tenant billed for requests that name none
	// ("" = "default").
	DefaultTenant string
	// SearchParallelism is the per-search worker count handed to
	// search.Options.Workers (0 = GOMAXPROCS). Lower it when Workers
	// is high to avoid oversubscription.
	SearchParallelism int
	// DefaultTimeout bounds a search when the request does not name a
	// timeout_ms (0 = 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (0 = 10min).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Cluster, when non-nil, routes schedule requests across the peer
	// set by consistent hashing with health-gated failover. The caller
	// owns the membership's Start/Stop lifecycle; the server only
	// consults it per request.
	Cluster *cluster.Cluster
	// Log receives one line per request (nil = log.Default()).
	Log *log.Logger
}

// Server serves schedule requests over HTTP, memoizing results in a
// shared cache and bounding concurrent search work. Create one with
// New and mount Handler on an http.Server.
type Server struct {
	cfg     Config
	cache   *search.Cache
	admit   *admission.Scheduler // multi-tenant worker-slot arbiter
	metrics *metrics
	start   time.Time
	log     *log.Logger

	// cluster is the peer membership (nil single-node); forwardClient
	// carries proxied requests and snapshot pulls to peers.
	cluster       *cluster.Cluster
	forwardClient *http.Client

	// warming and draining gate /v1/readyz: a node reports not-ready
	// while its cache warms at boot and again once shutdown begins.
	warming  atomic.Bool
	draining atomic.Bool
}

// New returns a Server ready to serve requests.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueueDepth == 0 {
		cfg.MaxQueueDepth = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	cacheSize := search.DefaultCacheCapacity
	if cfg.CacheSize > 0 {
		cacheSize = cfg.CacheSize
	} else if cfg.CacheSize < 0 {
		cacheSize = 0 // unbounded
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		cfg:   cfg,
		cache: search.NewCacheSized(cacheSize),
		admit: admission.NewScheduler(admission.Config{
			Slots:         cfg.Workers,
			MaxQueueDepth: cfg.MaxQueueDepth,
			Tenants:       cfg.Tenants,
		}),
		metrics:       newMetrics(),
		start:         time.Now(),
		log:           logger,
		cluster:       cfg.Cluster,
		forwardClient: newForwardClient(),
	}
	s.metrics.publish("cache", expvar.Func(func() any { return s.cache.Stats() }))
	s.metrics.publish("cache_hit_ratio", expvar.Func(func() any { return s.cache.Stats().HitRatio() }))
	s.metrics.publish("searches_coalesced_total", expvar.Func(func() any { return s.cache.Stats().CoalescedHits }))
	s.metrics.publish("worker_pool_size", expvar.Func(func() any { return cfg.Workers }))
	s.metrics.publish("requests_queued", expvar.Func(func() any { return s.admit.Stats().Queued }))
	s.metrics.publish("queue_depth_limit", expvar.Func(func() any { return s.admit.QueueDepth() }))
	s.metrics.publish("tenants", expvar.Func(func() any { return s.admit.Stats().Tenants }))
	s.metrics.publish("uptime_seconds", expvar.Func(func() any { return time.Since(s.start).Seconds() }))
	if s.cluster != nil {
		s.metrics.publish("cluster", expvar.Func(func() any { return s.cluster.Stats() }))
		s.metrics.publish("requests_forwarded_total", expvar.Func(func() any { return s.cluster.Forwards() }))
		s.metrics.publish("requests_failed_over_total", expvar.Func(func() any { return s.cluster.Failovers() }))
	}
	return s
}

// Cache exposes the server's shared result cache (e.g. for pre-warming
// or inspection in tests).
func (s *Server) Cache() *search.Cache { return s.cache }

// SaveCacheFile atomically snapshots the result cache to path: the
// snapshot is written to a temporary file in the same directory and
// renamed into place, so a crash mid-write never clobbers the previous
// snapshot. It returns the number of entries written.
func (s *Server) SaveCacheFile(path string) (int, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("cache snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := s.cache.SaveTo(tmp)
	if err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, fmt.Errorf("cache snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return n, fmt.Errorf("cache snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, fmt.Errorf("cache snapshot: %w", err)
	}
	return n, nil
}

// LoadCacheFile warms the result cache from a snapshot written by
// SaveCacheFile, returning how many entries were installed. A missing
// file is not an error — the first boot of a daemon with -cache-file
// simply starts cold.
func (s *Server) LoadCacheFile(path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("cache snapshot: %w", err)
	}
	defer f.Close()
	return s.cache.LoadFrom(f)
}

// Handler returns the routing table of the HTTP surface. Every route
// here is documented in docs/API.md.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule/layer", s.instrument("/v1/schedule/layer", s.handleLayer))
	mux.HandleFunc("/v1/schedule/network", s.instrument("/v1/schedule/network", s.handleNetwork))
	mux.HandleFunc("/v1/presets", s.instrument("/v1/presets", s.handlePresets))
	mux.HandleFunc("/v1/healthz", s.instrument("/v1/healthz", s.handleHealthz))
	mux.HandleFunc("/v1/readyz", s.instrument("/v1/readyz", s.handleReadyz))
	mux.HandleFunc("/v1/cluster/snapshot", s.instrument("/v1/cluster/snapshot", s.handleClusterSnapshot))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz)) // legacy alias of /v1/healthz
	mux.Handle("/debug/vars", s.metrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instrument wraps a handler with the request counters, the in-flight
// gauge and one log line per request. Successful probe hits (health
// and readiness) are counted but not logged: peers probe every couple
// of seconds and would otherwise drown real traffic in the log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	probe := endpoint == "/healthz" || endpoint == "/v1/healthz" || endpoint == "/v1/readyz"
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(endpoint, 1)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if sw.code >= 400 {
			s.metrics.errors.Add(fmt.Sprint(sw.code), 1)
		}
		if probe && sw.code < 400 {
			return
		}
		s.log.Printf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.code, time.Since(start).Round(time.Millisecond))
	}
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code and forwards it.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so instrumented handlers can
// stream; without it the wrapper hides the http.Flusher the net/http
// ResponseWriter implements.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleLayer serves POST /v1/schedule/layer.
func (s *Server) handleLayer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req LayerRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := s.resolveSearch(req.Arch, req.CustomArch, req.Options, req.FaultPlan)
	var l layer.Conv
	if err == nil {
		l, err = resolveLayer(req)
	}
	if err != nil {
		s.fail(w, err)
		return
	}

	// Cluster routing keys off the exact cache fingerprint, so
	// identical layer requests coalesce onto one home peer's search.
	rt, handled := s.routeSchedule(w, r, search.CacheKey(l, opts), req.TimeoutMS, req)
	if handled {
		return
	}

	// Single-layer requests are the latency-bound class: they overtake
	// queued network sweeps and preempt running preemptible ones.
	s.runSearch(w, r, searchJob{
		start: start, timeoutMS: req.TimeoutMS, opts: opts, hist: s.metrics.latency,
		adm: admission.Request{Tenant: s.tenant(r, req.Tenant), Tier: admission.TierInteractive},
		run: func(ctx context.Context, o search.Options) (any, error) {
			lr, err := search.SearchLayerCtx(ctx, l, o)
			if err != nil {
				return nil, err
			}
			return buildLayerResponse(lr, opts.Arch.Name, req.Full, msSince(start), rt), nil
		},
	})
}

// handleNetwork serves POST /v1/schedule/network.
func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req NetworkRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := s.resolveSearch(req.Arch, req.CustomArch, req.Options, req.FaultPlan)
	var n nets.Network
	if err == nil {
		n, err = resolveNetwork(req.Network, req.Scale)
	}
	if err != nil {
		s.fail(w, err)
		return
	}

	// Per-request miss counter: the cache's global Misses delta would
	// count searches run on behalf of concurrent requests too.
	var misses atomic.Int64
	opts.CacheMisses = &misses

	// Whole sweeps route as one unit by their request-level key, so
	// identical sweeps coalesce on a single home peer.
	rt, handled := s.routeSchedule(w, r, search.NetworkKey(req.Network, req.Scale, opts), req.TimeoutMS, req)
	if handled {
		return
	}

	// Network sweeps are the throughput-bound class: preemptible, so
	// an interactive arrival can take their slot at the next candidate
	// boundary (the sweep is then requeued and restarted).
	s.runSearch(w, r, searchJob{
		start: start, timeoutMS: req.TimeoutMS, opts: opts, hist: s.metrics.netLat,
		adm: admission.Request{Tenant: s.tenant(r, req.Tenant), Tier: admission.TierBatch, Preemptible: true},
		run: func(ctx context.Context, o search.Options) (any, error) {
			// Reset the miss counter: a preempted-and-requeued run would
			// otherwise report the aborted attempt's misses too.
			misses.Store(0)
			nr, err := search.SearchNetworkCtx(ctx, n, o)
			if err != nil {
				return nil, err
			}
			return buildNetworkResponse(nr, int(misses.Load()), msSince(start), rt), nil
		},
	})
}

// handlePresets serves GET /v1/presets.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, buildPresets())
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// tenantHeader names the HTTP header that selects the admission
// tenant when the request body names none.
const tenantHeader = "X-Flexer-Tenant"

// tenant resolves the admission tenant of one request: the body's
// tenant field, else the X-Flexer-Tenant header, else the server's
// default tenant.
func (s *Server) tenant(r *http.Request, bodyTenant string) string {
	if bodyTenant != "" {
		return bodyTenant
	}
	if h := r.Header.Get(tenantHeader); h != "" {
		return h
	}
	return s.cfg.DefaultTenant
}

// effectiveTimeout resolves the search deadline for one request: the
// client's timeout_ms clamped to the server maximum, or the server
// default when the client named none.
func (s *Server) effectiveTimeout(timeoutMS int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return timeout
}

// acquire runs admission control and takes one worker-pool slot from
// the tenant scheduler; the returned grant must be released exactly
// once. Shed requests get an overloadedError carrying their tenant's
// queue view; a context that ends while queueing returns ctx.Err().
func (s *Server) acquire(ctx context.Context, adm admission.Request) (*admission.Grant, error) {
	g, err := s.admit.Acquire(ctx, adm)
	if err != nil {
		var qf *admission.QueueFullError
		if errors.As(err, &qf) {
			s.metrics.shed.Add(1)
			return nil, overloadedError{retryAfter: s.retryAfter(), queue: qf}
		}
		return nil, err
	}
	s.metrics.searching.Add(1)
	return g, nil
}

// searchOutcome carries a finished search across its result channel.
type searchOutcome struct {
	v   any
	err error
}

// runOnGrant runs f to completion on a held grant, converting a panic
// into a panicError so the outcome channel always receives exactly one
// value, and — panic or not — restores the searching gauge and
// releases the worker slot. This is the only place a slot is returned,
// so one panicking request can never shrink the pool.
func (s *Server) runOnGrant(ctx context.Context, g *admission.Grant, f func(context.Context, search.CheckInFunc) (any, error), out chan<- searchOutcome) {
	var o searchOutcome
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			s.log.Printf("panic in search: %v\n%s", r, debug.Stack())
			o = searchOutcome{nil, panicError{val: r}}
		}
		s.metrics.searching.Add(-1)
		g.Release()
		out <- o
	}()
	v, err := f(ctx, g.CheckIn)
	o = searchOutcome{v, err}
}

// searchJob is one resolved schedule request, ready for the runner: its
// entry time, deadline and admission ticket, its search options, the
// histogram its latency lands in, and run, which turns one attempt's
// options into the response body.
type searchJob struct {
	start     time.Time
	timeoutMS int64
	adm       admission.Request
	opts      search.Options
	hist      *latencyHist
	run       func(context.Context, search.Options) (any, error)
}

// runSearch is the one request pipeline behind both schedule endpoints:
// acquire a worker slot, run one attempt on it and wait. An attempt
// preempted at a candidate boundary is counted and re-enqueued; the
// cache forgot its yielded entry, so it recomputes from scratch and
// ends with the result an uninterrupted run would have produced.
//
// A plain request is a stream whose event channel is nil and which
// never commits a 200 early: every failure goes through fail. A
// ?stream=1 request reports admission failures the same way, but once
// it holds a slot it commits to 200 + NDJSON, and later failures become
// a terminal "error" event.
//
// The runner returns as soon as the context ends, even while the
// attempt winds down in the background (it frees its slot at its next
// check); an outcome ready at the same moment wins. Every latency — the
// histogram, progress and result elapsed_ms — counts from j.start.
func (s *Server) runSearch(w http.ResponseWriter, r *http.Request, j searchJob) {
	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(j.timeoutMS))
	defer cancel()
	g, err := s.acquire(ctx, j.adm)
	if err != nil {
		s.fail(w, err)
		return
	}

	var events chan StreamEvent // nil for a plain request: never fires
	emit := func(StreamEvent) {}
	finish := func(v any, err error) {
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
	if wantStream(r) {
		events = make(chan StreamEvent, streamEventBuffer)
		j.opts.Progress = func(ev search.ProgressEvent) {
			select {
			case events <- streamProgress(ev, msSince(j.start)):
			default: // full buffer: drop, never stall the search
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		emit = func(ev StreamEvent) {
			if ev.Event == "progress" {
				s.metrics.progress.Add(1)
			}
			// A write error means the client went away; r.Context cancels
			// the search, so just keep draining until it unwinds.
			_ = enc.Encode(ev)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		finish = func(v any, err error) {
			if err != nil {
				code, body := s.errorResponse(err)
				emit(StreamEvent{Event: "error", Status: code, Error: body.Error,
					RetryAfterSeconds: body.RetryAfterSeconds, State: body.State})
				return
			}
			emit(resultEvent(v))
		}
	}

	attempt := func(ctx context.Context, checkIn search.CheckInFunc) (any, error) {
		o := j.opts
		o.CheckIn = checkIn
		return j.run(ctx, o)
	}
	done := make(chan searchOutcome, 1)
	go s.runOnGrant(ctx, g, attempt, done)
	for {
		var o searchOutcome
		select {
		case ev := <-events:
			emit(ev)
			continue
		case o = <-done:
		case <-ctx.Done():
			select {
			case o = <-done:
			default:
				o.err = ctx.Err()
			}
		}
		// Flush progress that raced the outcome so every buffered event
		// precedes the next milestone.
		for len(events) > 0 {
			emit(<-events)
		}
		if errors.Is(o.err, admission.ErrPreempted) {
			// A yield right as the deadline hit reports the deadline;
			// otherwise re-enqueue, and a failure to re-acquire is the
			// request's outcome.
			if o.err = ctx.Err(); o.err == nil {
				s.metrics.preempted.Add(1)
				s.metrics.requeued.Add(1)
				emit(StreamEvent{Event: "progress", Preempted: true, ElapsedMS: msSince(j.start)})
				if g, o.err = s.acquire(ctx, j.adm); o.err == nil {
					go s.runOnGrant(ctx, g, attempt, done)
					continue
				}
			}
		}
		if o.err == nil {
			j.hist.Observe(time.Since(j.start))
		}
		finish(o.v, o.err)
		return
	}
}

// decode reads a JSON request body, rejecting non-POST methods,
// oversized bodies and unknown fields.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid request body: " + err.Error()})
		return false
	}
	if err := dec.Decode(new(struct{})); !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid request body: trailing data"})
		return false
	}
	return true
}

// retryAfter estimates when a shed client should come back: the queue
// ahead of it, paced by the exponentially-decayed mean search latency
// per worker, clamped to [1s, 5min]. Before any observation it falls
// back to 1s. The decayed mean (not the lifetime mean) matters here:
// one cold multi-minute sweep must not inflate every later hint for
// the life of the process.
func (s *Server) retryAfter() time.Duration {
	mean := s.metrics.latency.DecayedMeanMS()
	if nm := s.metrics.netLat.DecayedMeanMS(); nm > mean {
		mean = nm
	}
	if mean <= 0 {
		mean = 1000
	}
	backlog := float64(int64(s.admit.Stats().Queued) + 1)
	d := time.Duration(mean*backlog/float64(s.cfg.Workers)) * time.Millisecond
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// state snapshots the queues and cache for degraded-mode error bodies,
// so a client that was shed or timed out can see why.
func (s *Server) state() *ServerStateJSON {
	st := s.admit.Stats()
	return &ServerStateJSON{
		Queued:     int64(st.Queued),
		QueueLimit: s.admit.QueueDepth(),
		Searching:  s.metrics.searching.Value(),
		Workers:    s.cfg.Workers,
		Cache:      s.cache.Stats(),
	}
}

// errorResponse is the one status table of the schedule endpoints: 400
// for malformed requests, 429 for shed load (with the tenant's queue
// view), 500 for a panicking search, 504 for deadlines, nginx's 499 for
// a client that went away, and 422 for well-formed requests the search
// cannot satisfy. Shed and timed-out bodies carry the queue/cache state
// so clients can degrade gracefully.
func (s *Server) errorResponse(err error) (int, ErrorResponse) {
	var bad badRequestError
	var over overloadedError
	var pan panicError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, ErrorResponse{Error: bad.Error()}
	case errors.As(err, &over):
		st, qf := s.state(), over.queue
		st.Tenant = &TenantStateJSON{Name: qf.Tenant, Queued: qf.Queued, QueueLimit: qf.Limit, Position: qf.Position}
		return http.StatusTooManyRequests, ErrorResponse{
			Error:             "server overloaded: schedule queue is full; retry after the advertised delay",
			RetryAfterSeconds: int(math.Ceil(over.retryAfter.Seconds())),
			State:             st,
		}
	case errors.As(err, &pan):
		return http.StatusInternalServerError, ErrorResponse{Error: pan.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorResponse{
			Error: "search timed out; retry with a larger timeout_ms or budget=quick",
			State: s.state(),
		}
	case errors.Is(err, context.Canceled):
		return 499, ErrorResponse{Error: "request cancelled"}
	default:
		return http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()}
	}
}

// fail writes err as a plain JSON error response, with a Retry-After
// header on 429s.
func (s *Server) fail(w http.ResponseWriter, err error) {
	code, body := s.errorResponse(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSeconds))
	}
	writeJSON(w, code, body)
}

// methodNotAllowed writes a 405 with the allowed method advertised.
func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed; use " + allow})
}

// writeJSON writes one JSON response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding errors past the header are unrecoverable mid-stream;
	// the client sees a truncated body and fails its own decode.
	_ = enc.Encode(v)
}

// msSince returns the elapsed wall-clock since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
