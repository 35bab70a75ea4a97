package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	winofault "repro"
	"repro/internal/obs"
)

// Handler exposes the service as the wfserve HTTP+JSON API:
//
//	POST   /campaigns            submit (?wait=1 blocks for the result)
//	GET    /campaigns/{id}        poll status (+result once done)
//	GET    /campaigns/{id}/result raw result bytes; ?format=text renders the
//	                              canonical wfsim accuracy table
//	GET    /campaigns/{id}/events server-sent events: per-round progress,
//	                              then the final status
//	GET    /campaigns/{id}/trace  the campaign's span timeline as JSON;
//	                              ?format=text renders a waterfall. Scoped to
//	                              the submitting tenants like every other
//	                              campaign route
//	DELETE /campaigns/{id}        cancel an in-flight campaign — shared by
//	                              design: coalesced waiters on the same
//	                              content address all observe the abort and
//	                              may resubmit (see Service.Cancel)
//	GET    /healthz               liveness + drain state: 200 {"ok":true,
//	                              "state":"serving"} while accepting work,
//	                              503 {"ok":false,"state":"draining"} once
//	                              shutdown has begun — load balancers and
//	                              fleet workers stop routing on the 503
//	GET    /metrics               Prometheus text format: queue depth,
//	                              in-flight jobs, cache hit/miss counters,
//	                              per-worker shard counts and the federated
//	                              wffleet_* series
//	GET    /fleet                 federated fleet view (JSON; ?format=text
//	                              renders a table): per-worker liveness,
//	                              heartbeat age, shard counts, exec p50/p99,
//	                              straggler flags. Tenant-agnostic but still
//	                              requires a valid API key on a keyed server;
//	                              404 without a distributor
//
// On a multi-tenant server (Config.Tenants set) every /campaigns* route
// demands a valid API key: submission resolves the key to the tenant that
// pays for the campaign, and status/result/events/cancel are scoped to the
// tenants that submitted the job (campaign IDs are deterministic request
// hashes, so without that scope any tenant that guessed another's request
// parameters could read its results or cancel its runs). Unknown keys get a
// 401; a valid key probing another tenant's campaign gets the same 404 an
// unknown campaign does, so existence never leaks across tenants.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancel)
	return mux
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ok":false,"state":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"ok":true,"state":"serving"}`)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintln(w, "# HELP wfserve_queue_depth Campaigns waiting in the bounded job queue.")
	fmt.Fprintln(w, "# TYPE wfserve_queue_depth gauge")
	fmt.Fprintf(w, "wfserve_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintln(w, "# HELP wfserve_jobs_inflight Campaigns currently executing.")
	fmt.Fprintln(w, "# TYPE wfserve_jobs_inflight gauge")
	fmt.Fprintf(w, "wfserve_jobs_inflight %d\n", st.Inflight)
	fmt.Fprintln(w, "# HELP wfserve_cache_hits_total Content-addressed cache probes that found a result.")
	fmt.Fprintln(w, "# TYPE wfserve_cache_hits_total counter")
	fmt.Fprintf(w, "wfserve_cache_hits_total %d\n", st.CacheHits)
	fmt.Fprintln(w, "# HELP wfserve_cache_misses_total Content-addressed cache probes that found nothing.")
	fmt.Fprintln(w, "# TYPE wfserve_cache_misses_total counter")
	fmt.Fprintf(w, "wfserve_cache_misses_total %d\n", st.CacheMisses)
	fmt.Fprintln(w, "# HELP wfserve_cache_entries In-memory cache tier entry count (LRU occupancy).")
	fmt.Fprintln(w, "# TYPE wfserve_cache_entries gauge")
	fmt.Fprintf(w, "wfserve_cache_entries %d\n", st.CacheEntries)
	fmt.Fprintln(w, "# HELP wfserve_cache_resident_bytes Result bytes resident in the in-memory cache tier.")
	fmt.Fprintln(w, "# TYPE wfserve_cache_resident_bytes gauge")
	fmt.Fprintf(w, "wfserve_cache_resident_bytes %d\n", st.CacheBytes)
	fmt.Fprintln(w, "# HELP wfserve_draining Whether shutdown has begun (healthz reports 503).")
	fmt.Fprintln(w, "# TYPE wfserve_draining gauge")
	fmt.Fprintf(w, "wfserve_draining %d\n", boolGauge(s.Draining()))
	if len(st.Tenants) > 0 {
		fmt.Fprintln(w, "# HELP wfserve_tenant_queue_depth Campaigns waiting per tenant.")
		fmt.Fprintln(w, "# TYPE wfserve_tenant_queue_depth gauge")
		for _, ts := range st.Tenants {
			fmt.Fprintf(w, "wfserve_tenant_queue_depth{tenant=\"%s\"} %d\n", obs.EscapeLabel(ts.Name), ts.QueueDepth)
		}
		fmt.Fprintln(w, "# HELP wfserve_tenant_jobs_running Campaigns executing per tenant.")
		fmt.Fprintln(w, "# TYPE wfserve_tenant_jobs_running gauge")
		for _, ts := range st.Tenants {
			fmt.Fprintf(w, "wfserve_tenant_jobs_running{tenant=\"%s\"} %d\n", obs.EscapeLabel(ts.Name), ts.Running)
		}
		fmt.Fprintln(w, "# HELP wfserve_tenant_admitted_total Submissions that consumed queue capacity, per tenant.")
		fmt.Fprintln(w, "# TYPE wfserve_tenant_admitted_total counter")
		for _, ts := range st.Tenants {
			fmt.Fprintf(w, "wfserve_tenant_admitted_total{tenant=\"%s\"} %d\n", obs.EscapeLabel(ts.Name), ts.Admitted)
		}
		fmt.Fprintln(w, "# HELP wfserve_tenant_rejected_total Submissions refused (queue full or over quota), per tenant.")
		fmt.Fprintln(w, "# TYPE wfserve_tenant_rejected_total counter")
		for _, ts := range st.Tenants {
			fmt.Fprintf(w, "wfserve_tenant_rejected_total{tenant=\"%s\"} %d\n", obs.EscapeLabel(ts.Name), ts.Rejected)
		}
		fmt.Fprintln(w, "# HELP wfserve_tenant_served_units_total Campaign work units executed per tenant.")
		fmt.Fprintln(w, "# TYPE wfserve_tenant_served_units_total counter")
		for _, ts := range st.Tenants {
			fmt.Fprintf(w, "wfserve_tenant_served_units_total{tenant=\"%s\"} %d\n", obs.EscapeLabel(ts.Name), ts.ServedUnits)
		}
	}
	if st.Workers != nil {
		live := 0
		for _, ws := range st.Workers {
			if ws.Live {
				live++
			}
		}
		fmt.Fprintln(w, "# HELP wfserve_workers_live Fleet workers with a fresh heartbeat.")
		fmt.Fprintln(w, "# TYPE wfserve_workers_live gauge")
		fmt.Fprintf(w, "wfserve_workers_live %d\n", live)
		fmt.Fprintln(w, "# HELP wfserve_worker_shards_total Shard results delivered per fleet worker.")
		fmt.Fprintln(w, "# TYPE wfserve_worker_shards_total counter")
		for _, ws := range st.Workers {
			fmt.Fprintf(w, "wfserve_worker_shards_total{worker=\"%s\",id=\"%s\"} %d\n",
				obs.EscapeLabel(ws.Name), obs.EscapeLabel(ws.ID), ws.Shards)
		}
	}
	if fr := s.fleet(); fr != nil {
		writeFleetMetrics(w, fr.Fleet())
	}
	s.metrics.Write(w)
	obs.WriteBuildInfo(w, "wfserve", s.start)
}

// handleTrace serves a finished or in-flight campaign's span timeline: from
// the in-memory ring first, falling back to the durable trace store when the
// ring misses (evicted, or the trace belongs to a previous incarnation of
// this server). Both paths serve the same TraceSnapshot wire form, so a
// disk-served trace is byte-identical to the one served before the restart.
// Without a trace store, a ring miss is a 404 exactly as before.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var snap obs.TraceSnapshot
	if tr := s.trace.Lookup(j.Key); tr != nil {
		snap = tr.Snapshot()
	} else if stored, ok := s.storedTrace(j.Key); ok {
		snap = stored
	} else {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no trace recorded for campaign %q", j.Key))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w)
}

// requestAPIKey extracts the caller's API key: "Authorization: Bearer <key>"
// or the "X-API-Key" header. Empty when neither is present.
func RequestAPIKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return r.Header.Get("X-API-Key")
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteError writes the JSON error body {"error": ...} with the given status,
// the error shape of both the campaign API and the fleet API.
func WriteError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeStatus(w http.ResponseWriter, code int, st winofault.CampaignStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req winofault.CampaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	j, err := s.SubmitFor(req, RequestAPIKey(r))
	switch {
	case errors.Is(err, ErrUnauthorized):
		WriteError(w, http.StatusUnauthorized, err)
		return
	case errors.Is(err, ErrQuotaExceeded):
		// The tenant's own campaigns must finish before capacity frees up;
		// hint a longer retry than the global queue-full backpressure.
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	wait := r.URL.Query().Get("wait")
	if wait == "" || wait == "0" || wait == "false" {
		st := j.StatusWithResult()
		code := http.StatusAccepted
		if st.State == winofault.StateDone {
			code = http.StatusOK
		}
		writeStatus(w, code, st)
		return
	}
	if _, err := j.Wait(r.Context()); err != nil && r.Context().Err() != nil {
		WriteError(w, http.StatusRequestTimeout, fmt.Errorf("wait aborted: %w", err))
		return
	}
	writeStatus(w, http.StatusOK, j.StatusWithResult())
}

// lookup authenticates the caller (when a key table is configured) and
// resolves the campaign, writing the error response itself on failure: 401
// for a missing or unknown API key, 404 both for unknown campaigns and for
// campaigns the caller's tenant never submitted.
func (s *Service) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	tenant := DefaultTenant
	if s.cfg.Tenants != nil {
		t, ok := s.cfg.Tenants.Lookup(RequestAPIKey(r))
		if !ok {
			WriteError(w, http.StatusUnauthorized, ErrUnauthorized)
			return nil, false
		}
		tenant = t.Name
	}
	j, ok := s.Job(r.PathValue("id"))
	if !ok || !j.visibleTo(tenant) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeStatus(w, http.StatusOK, j.StatusWithResult())
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := j.StatusWithResult()
	if st.State != winofault.StateDone {
		WriteError(w, http.StatusConflict, fmt.Errorf("campaign %q is %s", st.ID, st.State))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		var res winofault.CampaignResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		winofault.FormatSweep(w, res.Points)
		return
	}
	// The cached bytes verbatim: identical campaigns get byte-identical
	// responses, which CI diffs directly.
	w.Header().Set("Content-Type", "application/json")
	w.Write(st.Result)
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	updates, unsubscribe := j.Subscribe()
	defer unsubscribe()
	enc := json.NewEncoder(w)
	for {
		select {
		case st, open := <-updates:
			if !open {
				return
			}
			event := "progress"
			if st.State == winofault.StateDone || st.State == winofault.StateFailed {
				event = st.State
			}
			fmt.Fprintf(w, "event: %s\ndata: ", event)
			enc.Encode(st) // Encode terminates the data line with \n
			fmt.Fprint(w, "\n")
			if canFlush {
				fl.Flush()
			}
			if event != "progress" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.Cancel(j.Key)
	writeStatus(w, http.StatusOK, j.StatusWithResult())
}
