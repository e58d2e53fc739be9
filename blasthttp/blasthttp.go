// Package blasthttp is the network front end of the serving tier: a
// zero-dependency net/http handler over blast.Server exposing the
// candidate-serving API as JSON endpoints.
//
//	POST /v1/insert      admit profiles; ids returned are a durability receipt
//	GET  /v1/candidates  ?profile=N — retained candidates of one profile
//	GET  /v1/threshold   ?profile=N — theta_i of one profile
//	GET  /v1/pairs       every retained comparison, canonical order
//	POST /v1/quiesce     drive the server to the strongest consistent state
//	GET  /healthz        liveness (503 once the serving machinery failed)
//	GET  /statsz         writer, partition and write-path statistics
//
// Write path. POST /v1/insert calls Server.InsertAll directly, whose
// write queue commits concurrent requests together by group commit: one
// write-ahead-log record and one fsync for everything queued behind the
// previous commit, with no timer for a lone writer. The response ids
// carry the in-process durability receipt: on a durable server they are
// returned only after the batch reached the write-ahead log. A request
// counts against ServerOptions.MaxPendingRequests and MaxPendingBytes
// from admission until the writer has applied it; beyond either bound —
// the writer behind by the budget, say inside a long freeze — the
// server answers 429 Too Many Requests with a one-second Retry-After
// header instead of queueing without limit. Draining is the
// Server's: shut the http.Server down, which waits for every in-flight
// request, then Close the Server.
//
// Read path. Candidate and threshold reads are wait-free (they serve
// from the server's published state) and honor the in-process
// boundary semantics: out-of-range ids serve empty results, never
// errors. Every response body is produced by the exported *Body
// helpers, so a byte-compare of an HTTP response against the helper
// applied to the in-process Server is exact — the differential check
// TestEndpointsAndDifferential runs, boundary ids included.
package blasthttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"blast"
	"blast/internal/model"
	"blast/internal/shard"
)

// Options tunes the handler. The zero value is valid: every knob
// resolves to the documented default. The write-queue bounds are the
// Server's (ServerOptions.MaxPendingRequests and MaxPendingBytes).
type Options struct {
	// MaxBodyBytes bounds one insert request body (413 beyond it).
	// 0 selects 8 MiB.
	MaxBodyBytes int64
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return o.MaxBodyBytes
}

// Handler serves the blasthttp API over one blast.Server. Construct
// with NewHandler. The handler holds nothing of its own to release; the
// underlying Server's lifecycle belongs to the caller.
type Handler struct {
	srv *blast.Server
	opt Options
	mux *http.ServeMux
}

// NewHandler returns the handler.
func NewHandler(srv *blast.Server, opt Options) *Handler {
	h := &Handler{srv: srv, opt: opt}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/insert", h.handleInsert)
	mux.HandleFunc("GET /v1/candidates", h.handleCandidates)
	mux.HandleFunc("GET /v1/threshold", h.handleThreshold)
	mux.HandleFunc("GET /v1/pairs", h.handlePairs)
	mux.HandleFunc("POST /v1/quiesce", h.handleQuiesce)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /statsz", h.handleStatsz)
	h.mux = mux
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Stats snapshots the Server's write-queue counters.
func (h *Handler) Stats() blast.WriteStats { return h.srv.WriteStats() }

// Close releases the handler. It owns no goroutine and does not close
// the underlying Server, so it always returns nil.
func (h *Handler) Close() error { return nil }

// ---- JSON wire types ----
//
// The types (and the *Body helpers below) are exported so clients and
// the load-experiment differential share the exact encoding the handler
// emits.

// PairJSON is one name-value pair of a profile on the wire.
type PairJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// ProfileJSON is one entity profile on the wire.
type ProfileJSON struct {
	ID    string     `json:"id"`
	Pairs []PairJSON `json:"pairs"`
}

// InsertRequest is the body of POST /v1/insert.
type InsertRequest struct {
	Profiles []ProfileJSON `json:"profiles"`
}

// InsertResponse is the body of a successful insert: the assigned
// global ids, in request order. On a durable server the ids are a
// durability receipt — the batch reached the write-ahead log before
// they were assigned.
type InsertResponse struct {
	IDs []int `json:"ids"`
}

// CandidateJSON is one retained candidate comparison on the wire.
type CandidateJSON struct {
	ID     int32   `json:"id"`
	Weight float64 `json:"weight"`
}

// CandidatesResponse is the body of GET /v1/candidates.
type CandidatesResponse struct {
	Profile int             `json:"profile"`
	Epoch   uint64          `json:"epoch"`
	Count   int             `json:"count"`
	Results []CandidateJSON `json:"candidates"`
}

// ThresholdResponse is the body of GET /v1/threshold.
type ThresholdResponse struct {
	Profile   int     `json:"profile"`
	Epoch     uint64  `json:"epoch"`
	Threshold float64 `json:"threshold"`
}

// PairsResponse is the body of GET /v1/pairs.
type PairsResponse struct {
	Count int        `json:"count"`
	Pairs [][2]int32 `json:"pairs"`
}

// QuiesceResponse is the body of POST /v1/quiesce.
type QuiesceResponse struct {
	Admitted  int `json:"admitted"`
	Published int `json:"published"`
}

// StatszResponse is the body of GET /statsz. Shards holds one entry per
// partition of the server's publications: the writer's counters, and
// the partition's owned rows and resident bytes of the published state,
// which sum to the state's footprint. Every state is resident rows.
type StatszResponse struct {
	Admitted  int              `json:"admitted"`
	Published int              `json:"published"`
	Shards    []shard.Stats    `json:"shards"`
	Writes    blast.WriteStats `json:"writes"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// ToProfile converts a wire profile to the model type.
func (p ProfileJSON) ToProfile() model.Profile {
	out := model.Profile{ID: p.ID}
	if len(p.Pairs) > 0 {
		out.Pairs = make([]model.Pair, len(p.Pairs))
		for i, pr := range p.Pairs {
			out.Pairs[i] = model.Pair{Name: pr.Name, Value: pr.Value}
		}
	}
	return out
}

// FromProfile converts a model profile to the wire type.
func FromProfile(p model.Profile) ProfileJSON {
	out := ProfileJSON{ID: p.ID, Pairs: make([]PairJSON, len(p.Pairs))}
	for i, pr := range p.Pairs {
		out.Pairs[i] = PairJSON{Name: pr.Name, Value: pr.Value}
	}
	return out
}

// ---- canonical response encodings ----

// CandidatesBody renders the canonical /v1/candidates response body for
// one profile of an in-process Server — the oracle half of the load
// experiment's HTTP-vs-in-process differential. The body is read
// through an epoch-consistent Server.View, so the reported epoch and
// the candidate list always observe one publication, even while
// snapshots swap underneath.
func CandidatesBody(ctx context.Context, srv *blast.Server, profile int) ([]byte, error) {
	v, err := srv.View(ctx)
	if err != nil {
		return nil, err
	}
	cands := v.Candidates(profile)
	resp := CandidatesResponse{
		Profile: profile,
		Epoch:   v.Epoch(profile),
		Count:   len(cands),
		Results: make([]CandidateJSON, len(cands)),
	}
	for i, c := range cands {
		resp.Results[i] = CandidateJSON{ID: c.ID, Weight: c.Weight}
	}
	return marshalBody(resp)
}

// ThresholdBody renders the canonical /v1/threshold response body,
// read through an epoch-consistent Server.View like CandidatesBody.
func ThresholdBody(ctx context.Context, srv *blast.Server, profile int) ([]byte, error) {
	v, err := srv.View(ctx)
	if err != nil {
		return nil, err
	}
	return marshalBody(ThresholdResponse{Profile: profile, Epoch: v.Epoch(profile), Threshold: v.Threshold(profile)})
}

// PairsBody renders the canonical /v1/pairs response body.
func PairsBody(ctx context.Context, srv *blast.Server) ([]byte, error) {
	pairs, err := srv.Pairs(ctx)
	if err != nil {
		return nil, err
	}
	resp := PairsResponse{Count: len(pairs), Pairs: make([][2]int32, len(pairs))}
	for i, p := range pairs {
		resp.Pairs[i] = [2]int32{p.U, p.V}
	}
	return marshalBody(resp)
}

// marshalBody encodes a response body with a trailing newline (the
// encoding every endpoint and the differential oracle share).
func marshalBody(v any) ([]byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ---- handlers ----

func (h *Handler) writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//blast:allow syncerr -- HTTP response writes: the transport owns delivery; a client that vanished mid-body is not a durability event
	w.Write(body)
}

func (h *Handler) writeError(w http.ResponseWriter, status int, err error) {
	body, mErr := marshalBody(errorBody{Error: err.Error()})
	if mErr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	h.writeJSON(w, status, body)
}

func (h *Handler) writeValue(w http.ResponseWriter, v any) {
	body, err := marshalBody(v)
	if err != nil {
		h.writeError(w, http.StatusInternalServerError, err)
		return
	}
	h.writeJSON(w, http.StatusOK, body)
}

// profileParam parses the required ?profile=N query parameter.
func profileParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("profile")
	if raw == "" {
		return 0, errors.New("missing profile parameter")
	}
	p, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad profile parameter %q", raw)
	}
	return p, nil
}

// fail answers a failed call with the status its error maps to, the one
// mapping every handler shares: a full write queue is 429 with a
// Retry-After hint of one second (the header's granularity), an
// oversized body 413, an ended request context 408 (499-style: the
// client went away, so the status is best-effort), a closed server 503,
// and anything else 500.
func (h *Handler) fail(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, blast.ErrOverloaded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusRequestTimeout
	case errors.Is(err, shard.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	h.writeError(w, status, err)
}

func (h *Handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.opt.maxBodyBytes())
	var req InsertRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// One object and nothing after it: whatever follows would
		// otherwise be dropped unread, a second batch included.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			h.fail(w, err)
			return
		}
		h.writeError(w, http.StatusBadRequest, fmt.Errorf("bad insert body: %w", err))
		return
	}
	if len(req.Profiles) == 0 {
		h.writeError(w, http.StatusBadRequest, errors.New("insert requires at least one profile"))
		return
	}
	profiles := make([]model.Profile, len(req.Profiles))
	for i, p := range req.Profiles {
		profiles[i] = p.ToProfile()
	}
	ids, err := h.srv.InsertAll(r.Context(), profiles)
	if err != nil {
		h.fail(w, err)
		return
	}
	h.writeValue(w, InsertResponse{IDs: ids})
}

func (h *Handler) handleCandidates(w http.ResponseWriter, r *http.Request) {
	p, err := profileParam(r)
	if err != nil {
		h.writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := CandidatesBody(r.Context(), h.srv, p)
	if err != nil {
		h.fail(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, body)
}

func (h *Handler) handleThreshold(w http.ResponseWriter, r *http.Request) {
	p, err := profileParam(r)
	if err != nil {
		h.writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := ThresholdBody(r.Context(), h.srv, p)
	if err != nil {
		h.fail(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, body)
}

func (h *Handler) handlePairs(w http.ResponseWriter, r *http.Request) {
	body, err := PairsBody(r.Context(), h.srv)
	if err != nil {
		h.fail(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, body)
}

func (h *Handler) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	if err := h.srv.Quiesce(r.Context()); err != nil {
		h.fail(w, err)
		return
	}
	h.writeValue(w, QuiesceResponse{Admitted: h.srv.Admitted(), Published: h.srv.NumProfiles()})
}

func (h *Handler) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := h.srv.Err(); err != nil {
		h.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	h.writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}

func (h *Handler) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	h.writeValue(w, StatszResponse{
		Admitted:  h.srv.Admitted(),
		Published: h.srv.NumProfiles(),
		Shards:    h.srv.Stats(),
		Writes:    h.srv.WriteStats(),
	})
}
