package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
)

// HTTP JSON API of the ensemfdetd daemon. All endpoints speak JSON; errors
// are {"error": "..."} with a 4xx/5xx status.
//
//	POST /v1/edges   {"edges": [[u,v], ...]}          batched ingest
//	POST /v1/detect  {"t":40,"n":80,"s":0.1,...}      MVA detection
//	GET  /v1/votes   ?n=&s=&sampler=&seed=&min=&top=  ranked vote counts
//	GET  /v1/stats                                    graph + cache counters
//	GET  /metrics                                     Prometheus text format
//	GET  /healthz                                     liveness
//
// Request bodies are capped at maxBodyBytes to keep a malicious client from
// ballooning the heap; batch several /v1/edges calls for larger ingests.
const maxBodyBytes = 64 << 20

// NewHandler returns the daemon's HTTP routing handler over e. It is what
// cmd/ensemfdetd mounts and what the end-to-end tests boot under httptest.
func NewHandler(e *Engine) http.Handler {
	return NewHandlerWith(e, HandlerConfig{})
}

// HandlerConfig selects the role-dependent parts of the HTTP surface. The
// zero value is the classic standalone primary.
type HandlerConfig struct {
	// ReadOnly, when non-nil, is the follower's write guard: while it
	// reports true every mutating route is rejected with 403. Reads and
	// POST /v1/detect (a read that happens to take a body) stay open. It is
	// evaluated per request, so the failover role manager flips it at
	// promotion without rebuilding the handler.
	ReadOnly func() bool
	// PrimaryURL, when non-nil, names the primary in rejection bodies so a
	// misdirected writer knows where to go; evaluated per request, since
	// runtime re-pointing moves it.
	PrimaryURL func() string
	// Repl, when non-nil, is mounted under GET /v1/repl/ (the replication
	// shipping endpoints).
	Repl http.Handler
	// Admin, when non-nil, is mounted under POST /v1/admin/ (the failover
	// control surface: promote, follow). Admin routes are exempt from the
	// read-only guard — promotion is exactly the operation that must work on
	// a read-only follower.
	Admin http.Handler
	// Ready gates GET /readyz; nil means ready as soon as the handler is
	// serving (a primary is ready once recovery built it).
	Ready func() (bool, string)
	// Version, when set, is exported as the ensemfdetd_build_info metric.
	Version string
}

func (cfg HandlerConfig) primaryURL() string {
	if cfg.PrimaryURL == nil {
		return ""
	}
	return cfg.PrimaryURL()
}

// NewHandlerWith returns the routing handler over e shaped by cfg.
func NewHandlerWith(e *Engine, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/edges", func(w http.ResponseWriter, r *http.Request) { handleEdges(e, w, r) })
	mux.HandleFunc("POST /v1/detect", func(w http.ResponseWriter, r *http.Request) { handleDetect(e, w, r) })
	mux.HandleFunc("GET /v1/votes", func(w http.ResponseWriter, r *http.Request) { handleVotes(e, w, r) })
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(e, cfg.Version, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Ready != nil {
			if ok, reason := cfg.Ready(); !ok {
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unavailable", "reason": reason})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	if cfg.Repl != nil {
		mux.Handle("GET /v1/repl/", cfg.Repl)
	}
	if cfg.Admin != nil {
		mux.Handle("POST /v1/admin/", cfg.Admin)
	}
	if cfg.ReadOnly != nil {
		return readOnlyGuard(mux, cfg)
	}
	return mux
}

// readOnlyGuard is the follower's write guard: every non-read method is
// rejected before routing — including mutating routes added in the future,
// which is why this is a method filter and not a per-route check — except
// POST /v1/detect (a read that carries its parameters in a body) and the
// /v1/admin/ control surface (promotion must work on a read-only follower —
// it is how the follower stops being one). The 403 body names the primary
// so a misdirected writer can redirect itself.
func readOnlyGuard(next http.Handler, cfg HandlerConfig) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cfg.ReadOnly() {
			switch r.Method {
			case http.MethodGet, http.MethodHead, http.MethodOptions:
			case http.MethodPost:
				if r.URL.Path != "/v1/detect" && !strings.HasPrefix(r.URL.Path, "/v1/admin/") {
					rejectWrite(w, cfg.primaryURL())
					return
				}
			default:
				rejectWrite(w, cfg.primaryURL())
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func rejectWrite(w http.ResponseWriter, primaryURL string) {
	body := map[string]string{"error": "this daemon is a read-only replica; write to the primary"}
	if primaryURL != "" {
		body["primary"] = primaryURL
	}
	writeJSON(w, http.StatusForbidden, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeIngestError maps an ingest failure onto the durability contract:
//
//   - ErrDegraded → 503 with Retry-After and "degraded": true. The store's
//     WAL rejected the batch but is healing itself via a snapshot; the
//     client should retry after the hinted delay (dedup makes that safe).
//     A bare 500 here taught clients to treat the outage as fatal.
//   - ErrFenced → 409 with "fenced": true. This node observed a higher
//     failover epoch — it is a deposed primary and retrying against it can
//     never succeed; the error body names the ruling epoch.
//   - ErrOverloaded → 429 with Retry-After and "overloaded": true. The
//     admission queue was full so the batch was shed before touching the
//     store; backing off and retrying is the whole contract.
//
// Everything else falls through to the generic mapping.
func writeIngestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, persist.ErrDegraded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error(), "degraded": true})
	case errors.Is(err, persist.ErrFenced):
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "fenced": true})
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error(), "overloaded": true})
	default:
		writeError(w, statusFor(err), err)
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// Reject trailing garbage so a concatenated or truncated payload fails
	// loudly instead of half-applying. The limit reader can trip here too —
	// a first value that fits followed by bytes that push past the cap — and
	// that must keep reporting as an over-limit body (413), not as trailing
	// data (400).
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("bad request body: %w", err)
		}
		return errors.New("bad request body: trailing data after JSON value")
	}
	return nil
}

// bodyErrStatus distinguishes an over-limit body (413, the client should
// split the batch) from malformed JSON (400, the client should fix it).
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

type edgesRequest struct {
	// Edges is the batch, one [user, merchant] pair per element.
	Edges [][2]uint32 `json:"edges"`
}

type edgesResponse struct {
	Added      int    `json:"added"`
	Duplicates int    `json:"duplicates"`
	Version    uint64 `json:"version"`
	NumUsers   int    `json:"num_users"`
	NumMerch   int    `json:"num_merchants"`
	NumEdges   int    `json:"num_edges"`
}

func handleEdges(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req edgesRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("edges must be a non-empty array of [user, merchant] pairs"))
		return
	}
	batch := make([]bipartite.Edge, len(req.Edges))
	for i, p := range req.Edges {
		batch[i] = bipartite.Edge{U: p[0], V: p[1]}
	}
	res, err := e.Ingest(batch)
	if err != nil {
		// An id-bound rejection is the client's to fix (400); a degraded
		// WAL is a retryable outage (503 + Retry-After — dedup makes the
		// retry safe); a fenced store is neither (409): this node was
		// deposed and the client must re-target the new primary.
		writeIngestError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, edgesResponse{
		Added:      res.Added,
		Duplicates: res.Duplicates,
		Version:    res.Version,
		NumUsers:   res.Stats.NumUsers,
		NumMerch:   res.Stats.NumMerchants,
		NumEdges:   res.Stats.NumEdges,
	})
}

type detectRequest struct {
	// T is the MVA vote threshold; null/omitted or negative → N/2.
	T *int `json:"t"`
	// N, S, Sampler, Seed mirror serve.Params.
	N       int     `json:"n"`
	S       float64 `json:"s"`
	Sampler string  `json:"sampler"`
	Seed    int64   `json:"seed"`
}

func (req detectRequest) params() Params {
	return Params{Sampler: req.Sampler, NumSamples: req.N, SampleRatio: req.S, Seed: req.Seed}
}

type detectResponse struct {
	GraphVersion uint64 `json:"graph_version"`
	Threshold    int    `json:"threshold"`
	NumSamples   int    `json:"num_samples"`
	Cached       bool   `json:"cached"`
	// Incremental/ReusedSamples/RerunSamples describe the ensemble run behind
	// this answer: an incremental run re-executed only the RerunSamples
	// samples its ingest delta dirtied (cache hits report the original run's
	// split).
	Incremental   bool     `json:"incremental"`
	ReusedSamples int      `json:"reused_samples"`
	RerunSamples  int      `json:"rerun_samples"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	Users         []uint32 `json:"users"`
	Merchants     []uint32 `json:"merchants"`
}

func handleDetect(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	t := -1
	if req.T != nil {
		t = *req.T
	}
	start := time.Now()
	det, err := e.Detect(r.Context(), req.params(), t)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, detectResponse{
		GraphVersion:  det.GraphVersion,
		Threshold:     det.Threshold,
		NumSamples:    det.NumSamples,
		Cached:        det.Cached,
		Incremental:   det.Incremental,
		ReusedSamples: det.ReusedSamples,
		RerunSamples:  det.RerunSamples,
		ElapsedMS:     float64(time.Since(start).Microseconds()) / 1000,
		Users:         emptyNotNull(det.Users),
		Merchants:     emptyNotNull(det.Merchants),
	})
}

type votesResponse struct {
	GraphVersion uint64      `json:"graph_version"`
	NumSamples   int         `json:"num_samples"`
	Cached       bool        `json:"cached"`
	Users        []NodeVotes `json:"users"`
	Merchants    []NodeVotes `json:"merchants"`
}

func handleVotes(e *Engine, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p := Params{Sampler: q.Get("sampler")}
	var err error
	if p.NumSamples, err = intParam(q.Get("n"), 0); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad n: %w", err))
		return
	}
	if p.SampleRatio, err = floatParam(q.Get("s"), 0); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad s: %w", err))
		return
	}
	// Seed is an int64 everywhere else (the JSON body, core.Config); parsing
	// it as the platform int would truncate large seeds on 32-bit builds and
	// silently change which ensemble a cache key names.
	seed, err := int64Param(q.Get("seed"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed: %w", err))
		return
	}
	p.Seed = seed
	minVotes, err := intParam(q.Get("min"), 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad min: %w", err))
		return
	}
	top, err := intParam(q.Get("top"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad top: %w", err))
		return
	}
	rk, err := e.Rank(r.Context(), p, minVotes, top)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, votesResponse{
		GraphVersion: rk.GraphVersion,
		NumSamples:   rk.NumSamples,
		Cached:       rk.Cached,
		Users:        emptyNotNull(rk.Users),
		Merchants:    emptyNotNull(rk.Merchants),
	})
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func int64Param(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

// statusFor maps engine errors to HTTP statuses by inspecting the error
// itself, never the request context: a request can fail validation (400) or
// hit a real engine fault (500) and only then have its client hang up, and
// those statuses — which land in logs and metrics — must not be masked as
// 499 by the late disconnect. Only an error that is the cancellation gets
// the client-closed-request status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrInvalidParams):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// emptyNotNull keeps empty result sets serializing as [] rather than null.
func emptyNotNull[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
