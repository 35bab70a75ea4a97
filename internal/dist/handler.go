package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

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
//	POST /workers/{id}/lease       200 ShardTask, or 204 when nothing is
//	                               queued within Poll (the request is held)
//	POST /workers/{id}/result      deliver a ShardResult
//
// Every per-worker call answers 404 for a lapsed registration, which is the
// worker's signal to re-register.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers", c.handleRegister)
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

// handleLease answers a lease request with a shard, holding it for up to
// Poll while nothing is leasable: the request is answered the moment a shard
// is queued, so an idle worker starts new work without waiting out a poll
// interval. It answers 204 once Poll passes, the worker hangs up, the
// coordinator drains or closes.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	hold := time.NewTimer(c.cfg.Poll)
	defer hold.Stop()
	for {
		task, wake, err := c.lease(id)
		if err != nil {
			service.WriteError(w, http.StatusNotFound, err)
			return
		}
		if task != nil {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(task)
			return
		}
		if wake == nil {
			w.WriteHeader(http.StatusNoContent) // draining: nothing is held
			return
		}
		select {
		case <-wake:
			continue // a shard was queued, or the drain began: ask again
		case <-hold.C:
		case <-r.Context().Done():
		case <-c.stop:
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
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
