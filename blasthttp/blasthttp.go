// Package blasthttp is the network front end of the serving tier: a
// zero-dependency net/http handler over blast.Server exposing the
// candidate-serving API as JSON endpoints.
//
//	POST /v1/insert      admit profiles; ids returned are a durability receipt
//	GET  /v1/candidates  ?profile=N — retained candidates of one profile
//	GET  /v1/threshold   ?profile=N — theta_i of one profile
//	GET  /v1/pairs       every retained comparison, canonical order
//	POST /v1/quiesce     drive all shards to the strongest consistent state
//	GET  /healthz        liveness (503 once the serving machinery failed)
//	GET  /statsz         shard + write-path statistics
//
// Write path. Concurrent insert requests are coalesced by group commit:
// a committer goroutine admits everything queued as one
// Server.InsertAll batch at once, and requests arriving meanwhile form
// the next batch, so N small concurrent PUTs cost a few globally
// sequenced admissions instead of N and a lone writer waits on no timer. The response ids carry the
// same durability-receipt contract as the in-process call: on a durable
// server they are returned only after the batch reached every shard's
// write-ahead log. Admission is explicitly bounded — at most
// MaxPendingRequests requests and MaxPendingBytes request bytes may be
// in flight at once; beyond that the server answers 429 Too Many
// Requests with a Retry-After header instead of queueing unboundedly,
// so memory under saturation is capped by configuration, not by offered
// load.
//
// Read path. Candidate and threshold reads are wait-free (they serve
// from the owning shard's published snapshot) and honor the in-process
// boundary semantics: out-of-range ids serve empty results, never
// errors. Every response body is produced by the exported *Body
// helpers, so a byte-compare of an HTTP response against the helper
// applied to the in-process Server is exact — the differential check
// blastbench -exp load gates in CI.
package blasthttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"blast"
	"blast/internal/model"
	"blast/internal/shard"
)

// Options tunes the handler. The zero value is valid: every knob
// resolves to the documented default.
type Options struct {
	// MaxBatch bounds the profiles coalesced into one InsertAll call.
	// 0 selects 512.
	MaxBatch int
	// MaxPendingRequests bounds the insert requests in flight (queued
	// or committing); requests beyond it are shed with 429. 0 selects
	// 256.
	MaxPendingRequests int
	// MaxPendingBytes bounds the total encoded request bytes in flight;
	// requests beyond it are shed with 429. 0 selects 16 MiB.
	MaxPendingBytes int64
	// MaxBodyBytes bounds one insert request body (413 beyond it).
	// 0 selects 8 MiB.
	MaxBodyBytes int64
	// RetryAfter is the client backoff hint sent with 429 responses.
	// 0 selects 1 second (the Retry-After header has whole-second
	// granularity).
	RetryAfter time.Duration
}

func (o Options) maxBatch() int {
	if o.MaxBatch <= 0 {
		return 512
	}
	return o.MaxBatch
}

func (o Options) maxPendingRequests() int {
	if o.MaxPendingRequests <= 0 {
		return 256
	}
	return o.MaxPendingRequests
}

func (o Options) maxPendingBytes() int64 {
	if o.MaxPendingBytes <= 0 {
		return 16 << 20
	}
	return o.MaxPendingBytes
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return o.MaxBodyBytes
}

func (o Options) retryAfterSeconds() int {
	if o.RetryAfter <= 0 {
		return 1
	}
	s := int((o.RetryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// Handler serves the blasthttp API over one blast.Server. Construct
// with NewHandler; always Close it when done (Close stops the write
// committer; the underlying Server is NOT closed — its lifecycle
// belongs to the caller).
type Handler struct {
	srv *blast.Server
	opt Options
	bat *batcher
	mux *http.ServeMux
}

// NewHandler starts the write committer and returns the handler.
func NewHandler(srv *blast.Server, opt Options) *Handler {
	h := &Handler{srv: srv, opt: opt, bat: newBatcher(srv, opt)}
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

// Stats snapshots the write-path counters.
func (h *Handler) Stats() BatcherStats { return h.bat.stats() }

// Drain gracefully stops the write path: new inserts are refused with
// 503, every in-flight insert commits, and the server is quiesced so
// all admitted profiles are applied and published on every shard. ctx
// bounds the wait. Reads keep working during and after a drain. Part of
// the SIGTERM sequence of cmd/blastserve (drain, final snapshot, exit).
func (h *Handler) Drain(ctx context.Context) error {
	if err := h.bat.drain(ctx); err != nil {
		return err
	}
	return h.srv.Quiesce(ctx)
}

// Close stops the write committer after it drains its queue. It does
// not close the underlying Server. Idempotent.
func (h *Handler) Close() error {
	h.bat.close()
	return nil
}

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
// durability receipt — the batch reached every write-ahead log before
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

// StatszResponse is the body of GET /statsz. Storage names the graph
// storage mode builds run under; the per-shard entries carry the
// owned-rows and resident-bytes counters that make the partitioned
// memory claim observable per process.
type StatszResponse struct {
	Storage   string        `json:"storage"`
	Admitted  int           `json:"admitted"`
	Published int           `json:"published"`
	Shards    []shard.Stats `json:"shards"`
	Writes    BatcherStats  `json:"writes"`
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

// profilesBytes approximates the in-memory size of a decoded batch, the
// backpressure unit for requests without a Content-Length.
func profilesBytes(profiles []model.Profile) int64 {
	n := int64(0)
	for i := range profiles {
		n += int64(len(profiles[i].ID)) + 16
		for _, pr := range profiles[i].Pairs {
			n += int64(len(pr.Name)+len(pr.Value)) + 32
		}
	}
	return n
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

func (h *Handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.opt.maxBodyBytes())
	var req InsertRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body over %d bytes", tooBig.Limit))
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
	nbytes := r.ContentLength
	if nbytes < 0 {
		// Chunked request: charge the decoded payload instead.
		nbytes = profilesBytes(profiles)
	}
	ids, err := h.bat.submit(r.Context(), profiles, nbytes)
	if err != nil {
		switch {
		case errors.Is(err, ErrBackpressure):
			w.Header().Set("Retry-After", strconv.Itoa(h.opt.retryAfterSeconds()))
			h.writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed), errors.Is(err, shard.ErrClosed):
			h.writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// 499-style: the client went away; the status is best-effort.
			h.writeError(w, http.StatusRequestTimeout, err)
		default:
			h.writeError(w, http.StatusInternalServerError, err)
		}
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
		h.writeError(w, http.StatusInternalServerError, err)
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
		h.writeError(w, http.StatusInternalServerError, err)
		return
	}
	h.writeJSON(w, http.StatusOK, body)
}

func (h *Handler) handlePairs(w http.ResponseWriter, r *http.Request) {
	body, err := PairsBody(r.Context(), h.srv)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusRequestTimeout
		}
		h.writeError(w, status, err)
		return
	}
	h.writeJSON(w, http.StatusOK, body)
}

func (h *Handler) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	if err := h.srv.Quiesce(r.Context()); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, shard.ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			status = http.StatusRequestTimeout
		}
		h.writeError(w, status, err)
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
		Storage:   h.srv.Storage().String(),
		Admitted:  h.srv.Admitted(),
		Published: h.srv.NumProfiles(),
		Shards:    h.srv.Stats(),
		Writes:    h.bat.stats(),
	})
}
