package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/service"
)

// Errors surfaced to workers as HTTP statuses.
var (
	// errUnknownWorker (404) tells a worker its registration lapsed (it went
	// silent past the lease TTL, or the coordinator restarted); the worker
	// re-registers and carries on.
	errUnknownWorker = errors.New("dist: unknown worker (re-register)")
	// errDraining (503) tells a joining worker this coordinator is
	// terminating and will not accrete fleet.
	errDraining = errors.New("dist: coordinator is draining")
	// errUnauthorized (401) rejects a worker whose API key the configured
	// Auth hook refuses (or that sent none when one is required).
	errUnauthorized = errors.New("dist: invalid or missing API key")
)

// Handler exposes the worker-facing fleet API, mounted by wfserve next to
// the campaign API:
//
//	POST /workers                  register: {"name": ...} ->
//	                               {"id", "leaseMillis", "pollMillis"}
//	POST /workers/{id}/heartbeat   refresh registration + lease deadlines
//	POST /workers/{id}/lease       200 ShardTask, or 204 when idle
//	POST /workers/{id}/result      deliver a ShardResult
//	GET  /workers                  registry snapshot (debugging)
//
// Every per-worker call answers 404 for a lapsed registration, which is the
// worker's signal to re-register.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers", c.handleRegister)
	mux.HandleFunc("GET /workers", c.handleList)
	mux.HandleFunc("POST /workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /workers/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /workers/{id}/result", c.handleResult)
	if c.cfg.Auth == nil {
		return mux
	}
	// With an Auth hook, every fleet endpoint requires a valid key. Workers
	// are full campaign executors, so an open fleet port would bypass the
	// tenant API entirely.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !c.cfg.Auth(service.RequestAPIKey(r)) {
			service.WriteError(w, http.StatusUnauthorized, errUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
		return
	}
	resp, err := c.register(req.Name)
	if err != nil {
		service.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Workers())
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	// The body is optional: instrumented workers ship a metric snapshot
	// (federation), older workers post nothing. An unparseable body is
	// tolerated as snapshotless rather than rejected — a heartbeat's first
	// job is keeping the worker alive.
	var hb heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		hb.Metrics = nil
	}
	if !c.heartbeat(r.PathValue("id"), hb.Metrics) {
		service.WriteError(w, http.StatusNotFound, errUnknownWorker)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	task, err := c.lease(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	if task == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(task)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var res ShardResult
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad result body: %w", err))
		return
	}
	// Stale and duplicate results are dropped inside; the ack is
	// unconditional so a worker never retries a merge that already happened.
	c.result(r.PathValue("id"), res)
	w.WriteHeader(http.StatusNoContent)
}
