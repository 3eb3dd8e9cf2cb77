package serve

// Streaming progress for long searches. POST /v1/schedule/layer and
// /v1/schedule/network accept ?stream=1, switching the response to
// NDJSON (application/x-ndjson): one JSON object per line, zero or
// more "progress" events followed by exactly one terminal event —
// "result" carrying the same payload as the non-streaming endpoint, or
// "error" carrying the status the non-streaming endpoint would have
// returned. The stream is flushed after every event, so clients
// watching a default-budget search see candidates-evaluated and
// per-layer completion in near real time instead of minutes of
// silence. Server.runSearch drives both modes; the wire format is
// documented in docs/API.md.

import (
	"net/http"

	"github.com/flexer-sched/flexer/internal/search"
)

// StreamEvent is one NDJSON line of a ?stream=1 response. Event is
// "progress", "result" or "error"; the remaining fields are populated
// according to that discriminator (progress counters, exactly one of
// LayerResult/NetworkResult, or the error fields).
type StreamEvent struct {
	Event string `json:"event"`

	// Progress fields (Event == "progress"). Candidate counters track
	// tilings within Layer; the layer counters track whole-network
	// completion and are zero for single-layer streams.
	Layer           string  `json:"layer,omitempty"`
	CandidatesDone  int     `json:"candidates_done,omitempty"`
	CandidatesTotal int     `json:"candidates_total,omitempty"`
	BestScore       float64 `json:"best_score,omitempty"`
	LayerDone       bool    `json:"layer_done,omitempty"`
	LayersDone      int     `json:"layers_done,omitempty"`
	LayersTotal     int     `json:"layers_total,omitempty"`
	CacheHit        bool    `json:"cache_hit,omitempty"`
	Coalesced       bool    `json:"coalesced,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms,omitempty"`
	// Preempted marks a progress event reporting that the search was
	// preempted by a higher-priority request and re-enqueued; the
	// candidate counters restart from zero when it resumes.
	Preempted bool `json:"preempted,omitempty"`

	// Terminal payload (Event == "result"): exactly one is set,
	// matching the endpoint.
	LayerResult   *LayerResponse   `json:"layer_result,omitempty"`
	NetworkResult *NetworkResponse `json:"network_result,omitempty"`

	// Error fields (Event == "error"). Status is the HTTP status the
	// non-streaming endpoint would have returned.
	Error             string           `json:"error,omitempty"`
	Status            int              `json:"status,omitempty"`
	RetryAfterSeconds int              `json:"retry_after_seconds,omitempty"`
	State             *ServerStateJSON `json:"state,omitempty"`
}

// wantStream reports whether the request opted into NDJSON progress
// streaming via ?stream=1 (or stream=true).
func wantStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// streamEventBuffer bounds the progress-event queue between the search
// goroutines and the response writer. Events beyond it are dropped —
// progress is advisory and must never block the search — but the
// terminal result always goes out.
const streamEventBuffer = 256

// streamProgress converts a search progress event to its wire form.
func streamProgress(ev search.ProgressEvent, elapsedMS float64) StreamEvent {
	return StreamEvent{
		Event:           "progress",
		Layer:           ev.Layer,
		CandidatesDone:  ev.CandidatesDone,
		CandidatesTotal: ev.CandidatesTotal,
		BestScore:       ev.BestScore,
		LayerDone:       ev.LayerDone,
		LayersDone:      ev.LayersDone,
		LayersTotal:     ev.LayersTotal,
		CacheHit:        ev.CacheHit,
		Coalesced:       ev.Coalesced,
		ElapsedMS:       elapsedMS,
	}
}

// resultEvent wraps a finished response body in the terminal stream
// event of its endpoint.
func resultEvent(v any) StreamEvent {
	ev := StreamEvent{Event: "result"}
	switch v := v.(type) {
	case LayerResponse:
		ev.LayerResult = &v
	case NetworkResponse:
		ev.NetworkResult = &v
	}
	return ev
}
