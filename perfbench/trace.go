package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call boundary of the traced run. Spans of one
// request (a client request and its handler, or one DNN layer of the
// stage replay) share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response size a handler span wrote.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	// on gates the handler wrapper, so one server can serve an untraced
	// pass and then a traced one.
	on atomic.Bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent. req 0 makes the span the root of a
// new request.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	return openSpan{id: id, parent: parent, req: req, name: name, start: time.Now()}
}

func (t *tracer) end(o openSpan) { t.endBytes(o, 0) }

func (t *tracer) endBytes(o openSpan, bytes int64) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Bytes: bytes,
	})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap returns h behind a handler that, while tracing is on, records a
// serve.Handler span, with the response size, for each request a traced
// client sent, as a child of the client span named in its header.
// Requests without the header, such as the queue poller's, are not
// recorded.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if !t.on.Load() || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin("serve.Handler", parent, parent)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.endBytes(sp, cw.n)
	})
}

// countingWriter counts the body bytes a handler writes. It forwards
// Flush so streaming handlers still flush each NDJSON line.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// selfTimes returns each span's duration minus the durations of its
// children. Children of one span never overlap here: the replay is
// sequential and a client request has one handler.
func selfTimes(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := self[s.Parent]; ok {
				self[s.Parent] -= s.dur()
			}
		}
	}
	return self
}

// writeSpans writes the spans as one JSON array to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
