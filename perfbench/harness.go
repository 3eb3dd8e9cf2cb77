package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/flexer-sched/flexer/internal/serve"
)

// target is one in-process flexerd: serve.New with its default
// configuration behind a loopback listener. Its logger writes to
// io.Discard, so the per-request log formatting is measured and
// terminal I/O is not.
type target struct {
	hs     *http.Server
	base   string
	served chan error
}

// startTarget starts a server with a cold cache. wrap, when non-nil,
// wraps the server's handler (the traced run's span recorder).
func startTarget(wrap func(http.Handler) http.Handler) (*target, error) {
	srv := serve.New(serve.Config{Log: log.New(io.Discard, "", 0)})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		hs:     &http.Server{Handler: h},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// close shuts the server down and waits until its serve loop returns.
func (t *target) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// conn is one closed-loop client. It has a transport of its own, so its
// requests reuse one keep-alive connection and never share it with
// another client. It never retries.
type conn struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	// buf holds the last response body, so that reading responses adds
	// little garbage to the process the server shares with its clients.
	buf bytes.Buffer
	// trace, when non-nil, records a span per request and passes its ID
	// to the server-side handler wrapper.
	trace *tracer
}

func newConn(base string, trace *tracer) *conn {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr}, tr: tr, base: base, trace: trace}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// spanHeader carries the client span's ID to the handler wrapper.
const spanHeader = "X-Perfbench-Span"

// reply is the outcome of one request.
type reply struct {
	// body is the response document, or a stream's terminal result line.
	// A document is valid only until the conn's next request.
	body    []byte
	latency time.Duration
	// lastLayerDone is when a stream's last layer_done event arrived,
	// measured from the send.
	lastLayerDone time.Duration
	span          int64
	// err is why the request failed: a transport error, a non-2xx
	// status, an NDJSON error event or a stream without a result.
	err error
}

// post sends one request and reads the whole response.
func (c *conn) post(path string, body []byte, stream bool) reply {
	url := c.base + path
	if stream {
		url += "?stream=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	sp := c.trace.begin("client.request", 0, 0)
	if c.trace != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var rep reply
	if err != nil {
		rep.err = fmt.Errorf("transport: %w", err)
	} else {
		rep = readReply(resp, stream, start, &c.buf)
		resp.Body.Close()
	}
	rep.latency = time.Since(start)
	c.trace.end(sp)
	rep.span = sp.id
	return rep
}

// get fetches a GET endpoint and decodes its JSON body into v.
func (c *conn) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// readReply classifies a response. A non-2xx status is a failure
// carrying the server's error message; a stream fails on an error
// event or when it ends without a result event. A document is read
// into buf.
func readReply(resp *http.Response, stream bool, start time.Time, buf *bytes.Buffer) reply {
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e serve.ErrorResponse
		b, _ := io.ReadAll(resp.Body) // the status alone decides the failure
		if json.Unmarshal(b, &e) != nil || e.Error == "" {
			e.Error = string(bytes.TrimSpace(b))
		}
		return reply{err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)}
	}
	if !stream {
		buf.Reset()
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return reply{err: fmt.Errorf("transport: %w", err)}
		}
		return reply{body: buf.Bytes()}
	}
	var rep reply
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev struct {
				Event     string `json:"event"`
				LayerDone bool   `json:"layer_done"`
				Error     string `json:"error"`
				Status    int    `json:"status"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return reply{err: fmt.Errorf("stream: bad event: %v", jerr)}
			}
			switch ev.Event {
			case "progress":
				if ev.LayerDone {
					rep.lastLayerDone = time.Since(start)
				}
			case "error":
				return reply{err: fmt.Errorf("stream error event %d: %s", ev.Status, ev.Error)}
			case "result":
				rep.body = bytes.TrimSpace(line)
				return rep
			}
		}
		if err == io.EOF {
			return reply{err: errors.New("stream ended without a result event")}
		}
		if err != nil {
			return reply{err: fmt.Errorf("transport: %w", err)}
		}
	}
}

var elapsedKey = []byte(`"elapsed_ms":`)

// elapsedField returns the byte range of the value of the last
// "elapsed_ms" field in b, or ok=false. Schedule responses carry the
// field once: at the top level of a document, or inside the result of
// a stream's terminal line.
func elapsedField(b []byte) (from, to int, ok bool) {
	i := bytes.LastIndex(b, elapsedKey)
	if i < 0 {
		return 0, 0, false
	}
	from = i + len(elapsedKey)
	for from < len(b) && b[from] == ' ' {
		from++
	}
	to = from
	for to < len(b) && bytes.IndexByte([]byte("0123456789.-+eE"), b[to]) >= 0 {
		to++
	}
	return from, to, true
}

// elapsedMS returns the server-reported search time of a response.
func elapsedMS(b []byte) float64 {
	from, to, ok := elapsedField(b)
	if !ok {
		return 0
	}
	v, _ := strconv.ParseFloat(string(b[from:to]), 64) // a malformed value reads as 0
	return v
}

// sameIgnoringElapsed reports whether two responses are byte-identical
// apart from the value of their elapsed_ms field.
func sameIgnoringElapsed(a, b []byte) bool {
	af, at, aok := elapsedField(a)
	bf, bt, bok := elapsedField(b)
	if !aok || !bok {
		return aok == bok && bytes.Equal(a, b)
	}
	return bytes.Equal(a[:af], b[:bf]) && bytes.Equal(a[at:], b[bt:])
}

// debugVars is the part of /debug/vars the traced run reads.
type debugVars struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced_hits"`
	} `json:"cache"`
	Preempted int64            `json:"requests_preempted_total"`
	Requeued  int64            `json:"requests_requeued_total"`
	Shed      int64            `json:"requests_shed_total"`
	Progress  int64            `json:"progress_events_total"`
	Queued    int64            `json:"requests_queued"`
	Errors    map[string]int64 `json:"request_errors_total"`
}

// errorCount sums the non-2xx counter across status codes.
func (v debugVars) errorCount() int64 {
	var n int64
	for _, c := range v.Errors {
		n += c
	}
	return n
}

// counters is the cumulative subset of debugVars that the traced run
// accumulates across servers and phases.
type counters struct {
	hits, misses, coalesced             int64
	preempted, requeued, shed, progress int64
	errors                              int64
}

func (v debugVars) counters() counters {
	return counters{
		hits: v.Cache.Hits, misses: v.Cache.Misses, coalesced: v.Cache.Coalesced,
		preempted: v.Preempted, requeued: v.Requeued, shed: v.Shed, progress: v.Progress,
		errors: v.errorCount(),
	}
}

func (a counters) add(b counters) counters {
	return counters{
		a.hits + b.hits, a.misses + b.misses, a.coalesced + b.coalesced,
		a.preempted + b.preempted, a.requeued + b.requeued, a.shed + b.shed, a.progress + b.progress,
		a.errors + b.errors,
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		a.hits - b.hits, a.misses - b.misses, a.coalesced - b.coalesced,
		a.preempted - b.preempted, a.requeued - b.requeued, a.shed - b.shed, a.progress - b.progress,
		a.errors - b.errors,
	}
}
