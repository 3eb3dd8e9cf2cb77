package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client is a typed Go client for a flexerd server. The zero value is
// not usable; construct one with NewClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	// Ignored when Peers is set.
	BaseURL string
	// Peers is the cluster bootstrap set: every flexerd node's URL.
	// Requests go to one peer at a time; a transport failure rotates to
	// the next (and retries, under Retry's attempt cap), so any live
	// peer keeps the client working — the server side then routes the
	// request to its home node internally. Do not mutate after first
	// use; rotation itself is concurrency-safe.
	Peers []string
	// HTTPClient issues the requests (nil = http.DefaultClient). Give
	// it a Timeout slightly above the request timeout_ms you use, or
	// set Retry.AttemptTimeout.
	HTTPClient *http.Client
	// Retry, when non-nil, retries temporary server failures (429 shed
	// load, 504 deadline) with exponential backoff; nil disables
	// retries, preserving the one-shot behavior. See RetryPolicy.
	Retry *RetryPolicy
	// Tenant, when non-empty, is sent as the X-Flexer-Tenant header on
	// every schedule request, naming the admission tenant that queues
	// and is billed for this client's searches. A request body's own
	// tenant field takes precedence.
	Tenant string

	// peerIdx cursors Peers; advanced on transport failure.
	peerIdx atomic.Int64
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// NewClusterClient returns a client bootstrapped with every peer of a
// flexerd cluster, with retries on: a request that fails in transport
// rotates to the next peer instead of failing the caller, so the
// client survives any single node's death.
func NewClusterClient(peers ...string) *Client {
	c := &Client{Retry: &RetryPolicy{}}
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			c.Peers = append(c.Peers, p)
		}
	}
	if len(c.Peers) > 0 {
		c.BaseURL = c.Peers[0]
	}
	return c
}

// baseURL returns the endpoint for the next request: the current peer
// of the bootstrap set, or the fixed BaseURL without one.
func (c *Client) baseURL() string {
	if len(c.Peers) > 0 {
		return c.Peers[int(c.peerIdx.Load())%len(c.Peers)]
	}
	return c.BaseURL
}

// failover rotates to the next peer after a transport failure,
// reporting whether the attempt is worth retrying: only with a peer
// set configured and the caller's context still live. Note the check
// is against the caller's context, not the error chain — a per-attempt
// timeout surfaces as context.DeadlineExceeded but must still fail
// over while the overall deadline is live.
func (c *Client) failover(ctx context.Context) bool {
	if len(c.Peers) == 0 || ctx.Err() != nil {
		return false
	}
	c.peerIdx.Add(1)
	return true
}

// RetryPolicy tunes the client's automatic retry of temporary failures
// (*APIError with Temporary() true; transport errors and 4xx/422
// verdicts are never retried). The zero value retries up to 4 attempts
// with 100ms base delay doubling to a 10s cap and 20% jitter. When a
// 429 carries a Retry-After hint, the hint is a floor under the
// computed backoff — the server's estimate of when a slot frees is
// better than blind exponential growth. Streaming requests are retried
// only when the failing attempt had delivered no events, so progress
// callbacks never observe a restart mid-stream.
type RetryPolicy struct {
	// MaxAttempts caps the total number of attempts, including the
	// first (0 = 4; 1 = no retries).
	MaxAttempts int
	// BaseDelay is the first retry's backoff (0 = 100ms); attempt n
	// waits BaseDelay << n, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = 10s).
	MaxDelay time.Duration
	// Jitter is the random fraction added to each delay, in [0, 1]
	// (0 = 20%; negative = none). Jitter decorrelates clients that were
	// shed together so they do not stampede back together.
	Jitter float64
	// AttemptTimeout bounds each non-streaming attempt independently of
	// the request context's overall deadline (0 = none). Without it, one
	// black-holed peer consumes the whole deadline before the client
	// can fail over; with it, the hung attempt is abandoned after
	// AttemptTimeout and the next attempt — possibly against the next
	// peer — still has deadline left to succeed in. Streaming attempts
	// are exempt: a healthy stream legitimately outlives any per-attempt
	// bound.
	AttemptTimeout time.Duration
}

// attempts returns the effective attempt cap.
func (p *RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 4
}

// delay computes the wait before retry number attempt (0-based), with
// floor — the server's Retry-After hint — taking precedence over a
// smaller backoff.
func (p *RetryPolicy) delay(attempt int, floor time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 10 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	if floor > d {
		d = floor
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		d += time.Duration(rand.Float64() * jitter * float64(d))
	}
	return d
}

// withRetry runs f under the client's retry policy. f reports whether
// its failure may be retried at all (streaming attempts that already
// delivered events may not); on top of that only temporary API errors
// — and, with a peer set, transport failures, which first rotate to
// the next peer — are retried, with a context-aware sleep between
// attempts.
func (c *Client) withRetry(ctx context.Context, f func() (error, bool)) error {
	p := c.Retry
	if p == nil {
		err, _ := f()
		return err
	}
	var lastErr error
	for attempt := 0; attempt < p.attempts(); attempt++ {
		if attempt > 0 {
			var floor time.Duration
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) {
				floor = apiErr.RetryAfter
			}
			timer := time.NewTimer(p.delay(attempt-1, floor))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
		}
		err, retryable := f()
		lastErr = err
		if err == nil || !retryable {
			return err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			if !apiErr.Temporary() {
				return err
			}
		} else if !c.failover(ctx) {
			// A transport failure (no HTTP response at all): without a
			// peer set to rotate through, keep the one-shot verdict.
			return err
		}
	}
	return lastErr
}

// ScheduleLayer schedules one layer via POST /v1/schedule/layer.
func (c *Client) ScheduleLayer(ctx context.Context, req LayerRequest) (*LayerResponse, error) {
	var resp LayerResponse
	if err := c.post(ctx, "/v1/schedule/layer", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ScheduleNetwork schedules a whole network via POST
// /v1/schedule/network.
func (c *Client) ScheduleNetwork(ctx context.Context, req NetworkRequest) (*NetworkResponse, error) {
	var resp NetworkResponse
	if err := c.post(ctx, "/v1/schedule/network", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ScheduleLayerStream schedules one layer via POST
// /v1/schedule/layer?stream=1, invoking onProgress (which may be nil)
// for every progress event and returning the terminal result. Server
// errors — including those delivered mid-stream as terminal "error"
// events — are returned as *APIError.
func (c *Client) ScheduleLayerStream(ctx context.Context, req LayerRequest, onProgress func(StreamEvent)) (*LayerResponse, error) {
	final, err := c.stream(ctx, "/v1/schedule/layer", req, onProgress)
	if err != nil {
		return nil, err
	}
	if final.LayerResult == nil {
		return nil, fmt.Errorf("serve client: stream result event without a layer payload")
	}
	return final.LayerResult, nil
}

// ScheduleNetworkStream schedules a whole network via POST
// /v1/schedule/network?stream=1; see ScheduleLayerStream for the
// streaming contract.
func (c *Client) ScheduleNetworkStream(ctx context.Context, req NetworkRequest, onProgress func(StreamEvent)) (*NetworkResponse, error) {
	final, err := c.stream(ctx, "/v1/schedule/network", req, onProgress)
	if err != nil {
		return nil, err
	}
	if final.NetworkResult == nil {
		return nil, fmt.Errorf("serve client: stream result event without a network payload")
	}
	return final.NetworkResult, nil
}

// Presets fetches the server inventory via GET /v1/presets.
func (c *Client) Presets(ctx context.Context) (*PresetsResponse, error) {
	var resp PresetsResponse
	if err := c.get(ctx, "/v1/presets", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz probes GET /v1/healthz (liveness), returning nil when the
// server process is up — even one that is warming or draining.
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/v1/healthz", &struct {
		Status string `json:"status"`
	}{})
}

// Readyz probes GET /v1/readyz (readiness), returning nil when the
// server accepts new work; a warming or draining node answers with a
// 503 *APIError whose message names the reason.
func (c *Client) Readyz(ctx context.Context) error {
	return c.get(ctx, "/v1/readyz", &struct {
		Status string `json:"status"`
	}{})
}

// httpClient returns the configured or default HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// attemptCtx derives one non-streaming attempt's context: the caller's
// ctx further bounded by Retry.AttemptTimeout when one is set.
func (c *Client) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Retry != nil && c.Retry.AttemptTimeout > 0 {
		return context.WithTimeout(ctx, c.Retry.AttemptTimeout)
	}
	return ctx, func() {}
}

// post sends one JSON request and decodes the JSON response into out,
// retrying temporary failures per the client's policy. The body is
// marshalled once; each attempt replays it from the start.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("serve client: encode %s request: %w", path, err)
	}
	return c.withRetry(ctx, func() (error, bool) {
		actx, cancel := c.attemptCtx(ctx)
		defer cancel()
		req, err := c.scheduleRequest(actx, path, body)
		if err != nil {
			return err, false
		}
		return c.do(req, out), true
	})
}

// scheduleRequest builds one POST of a marshalled schedule body to
// path (which may carry a query) on the current peer, naming the
// client's tenant when it has one.
func (c *Client) scheduleRequest(ctx context.Context, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL()+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		req.Header.Set(tenantHeader, c.Tenant)
	}
	return req, nil
}

// get issues one GET and decodes the JSON response into out, retrying
// temporary failures per the client's policy.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.withRetry(ctx, func() (error, bool) {
		actx, cancel := c.attemptCtx(ctx)
		defer cancel()
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.baseURL()+path, nil)
		if err != nil {
			return fmt.Errorf("serve client: %w", err), false
		}
		return c.do(req, out), true
	})
}

// do runs the request, turning non-2xx responses into *APIError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve client: decode %s response: %w", req.URL.Path, err)
	}
	return nil
}

// stream posts one schedule request with ?stream=1 and consumes the
// NDJSON response: progress events go to onProgress (when non-nil) and
// the terminal event is returned. A terminal "error" event becomes an
// *APIError carrying the status the non-streaming endpoint would have
// used; unknown event types are skipped for forward compatibility.
func (c *Client) stream(ctx context.Context, path string, in any, onProgress func(StreamEvent)) (StreamEvent, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return StreamEvent{}, fmt.Errorf("serve client: encode %s request: %w", path, err)
	}
	var final StreamEvent
	err = c.withRetry(ctx, func() (error, bool) {
		ev, seen, err := c.streamOnce(ctx, path, body, onProgress)
		final = ev
		// An attempt that already delivered events must not restart:
		// the caller's progress callback would see the search begin
		// again. Only clean pre-stream failures (shed admission, an
		// error event before any progress) are safe to retry.
		return err, !seen
	})
	return final, err
}

// streamOnce runs one streaming attempt, reporting whether any event —
// progress or terminal — was delivered to the caller before failure.
func (c *Client) streamOnce(ctx context.Context, path string, body []byte, onProgress func(StreamEvent)) (StreamEvent, bool, error) {
	req, err := c.scheduleRequest(ctx, path+"?stream=1", body)
	if err != nil {
		return StreamEvent{}, false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return StreamEvent{}, false, fmt.Errorf("serve client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	// Admission failures arrive before the stream starts, as plain
	// JSON errors with a real HTTP status.
	if resp.StatusCode/100 != 2 {
		return StreamEvent{}, false, apiError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	seen := false
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return StreamEvent{}, seen, fmt.Errorf("serve client: %s stream ended without a terminal event", path)
			}
			return StreamEvent{}, seen, fmt.Errorf("serve client: decode %s stream: %w", path, err)
		}
		switch ev.Event {
		case "progress":
			if onProgress != nil {
				onProgress(ev)
			}
			seen = true
		case "result":
			return ev, true, nil
		case "error":
			apiErr := &APIError{
				StatusCode: ev.Status,
				Message:    ev.Error,
				State:      ev.State,
			}
			if ev.RetryAfterSeconds > 0 {
				apiErr.RetryAfter = time.Duration(ev.RetryAfterSeconds) * time.Second
			}
			return StreamEvent{}, seen, apiErr
		}
	}
}

// apiError converts a non-2xx response into *APIError; the caller
// still owns resp.Body.
func apiError(resp *http.Response) error {
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		e.Error = resp.Status
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: e.Error, State: e.State}
	apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	return apiErr
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110:
// either a non-negative integer delay in seconds or an HTTP-date.
// Unparseable values, negative delays, dates in the past and delays
// that overflow time.Duration all yield 0 — a bogus hint must never
// stall or crash the client.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs <= 0 || secs > math.MaxInt64/int64(time.Second) {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// APIError is a non-2xx response from the server.
type APIError struct {
	// StatusCode is the HTTP status (400, 422, 429, 504, ...).
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's back-off hint on 429 responses
	// (zero when the server sent none).
	RetryAfter time.Duration
	// State is the server's load snapshot on 429/504 responses, nil
	// otherwise.
	State *ServerStateJSON
}

// Error formats the status and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("flexerd: %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying later may succeed (shed load or a
// timeout), letting callers branch without matching status codes.
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusGatewayTimeout
}
