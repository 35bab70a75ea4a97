package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/obs"
)

// FleetStatus is the fleet view (Distributor.Fleet) served by GET /fleet and
// rendered as the wffleet_* series on /metrics.
type FleetStatus struct {
	// Epoch is the coordinator incarnation (shard IDs and traces carry it).
	Epoch string `json:"epoch"`
	// StragglerFactor is the flagging threshold: a worker whose per-unit exec
	// EWMA exceeds this multiple of MedianUnitSeconds is a straggler.
	StragglerFactor float64 `json:"stragglerFactor"`
	// MedianUnitSeconds is the fleet's (lower) median per-unit exec EWMA.
	MedianUnitSeconds float64       `json:"medianUnitSeconds"`
	Workers           []FleetWorker `json:"workers"`
}

// FleetWorker is one worker's row in the fleet view: coordinator-side state
// (liveness, merged shard count, straggler flag) joined with the node's last
// heartbeat snapshot (exec histogram, runtime gauges).
type FleetWorker struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Epoch string `json:"epoch"`
	Live  bool   `json:"live"`
	// Straggler marks a worker the coordinator has benched for running
	// slower than StragglerFactor× the fleet median.
	Straggler bool `json:"straggler"`
	// Shards counts shard results the coordinator merged from this worker —
	// the coordinator's number, deterministic under heartbeat timing.
	Shards int64 `json:"shards"`
	// LastHeartbeat is seconds since the worker was last heard from.
	LastHeartbeat float64 `json:"lastHeartbeatSeconds"`
	// UnitSeconds is the coordinator's per-unit exec EWMA for this worker.
	UnitSeconds float64 `json:"unitSeconds"`
	// Inflight/Goroutines/HeapBytes come from the worker's own heartbeat
	// snapshot (zero until an instrumented worker heartbeats).
	Inflight   int64  `json:"inflight"`
	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heapBytes"`
	// Exec is the worker's shard execution histogram as last reported; P50
	// and P99 are quantile estimates over it, in seconds.
	Exec obs.HistogramSnapshot `json:"exec"`
	P50  float64               `json:"p50"`
	P99  float64               `json:"p99"`
}

// WriteText renders the fleet as the fixed-width table GET /fleet?format=text
// serves and wftop displays: one row per worker, stragglers marked.
func (fs FleetStatus) WriteText(w io.Writer) {
	fmt.Fprintf(w, "fleet epoch %s  (workers: %d, median %s/unit, straggler > %gx median)\n",
		fs.Epoch, len(fs.Workers), fmtSeconds(fs.MedianUnitSeconds), fs.StragglerFactor)
	fmt.Fprintf(w, "%-8s %-16s %-12s %5s %10s %7s %10s %10s %s\n",
		"WORKER", "NAME", "EPOCH", "LIVE", "HEARTBEAT", "SHARDS", "P50", "P99", "FLAGS")
	rows := make([]FleetWorker, len(fs.Workers))
	copy(rows, fs.Workers)
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	for _, fw := range rows {
		live := "no"
		if fw.Live {
			live = "yes"
		}
		flags := "-"
		if fw.Straggler {
			flags = "STRAGGLER"
		}
		fmt.Fprintf(w, "%-8s %-16.16s %-12s %5s %9.1fs %7d %10s %10s %s\n",
			fw.ID, fw.Name, fw.Epoch, live, fw.LastHeartbeat, fw.Shards,
			fmtSeconds(fw.P50), fmtSeconds(fw.P99), flags)
	}
}

// fmtSeconds renders a seconds value at a human scale (µs/ms/s).
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// writeFleetMetrics renders the federated wffleet_* series for /metrics:
// per-worker gauges from coordinator state and heartbeat snapshots, plus one
// wffleet_shard_exec_seconds histogram family with a label set per worker.
// Worker names arrive from the network, so every label value is escaped.
func writeFleetMetrics(w io.Writer, fs FleetStatus) {
	labels := func(fw FleetWorker) []obs.Attr {
		return []obs.Attr{{K: "worker", V: fw.Name}, {K: "id", V: fw.ID}}
	}
	gauge := func(name, help string, value func(FleetWorker) string) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		for _, fw := range fs.Workers {
			fmt.Fprintf(w, "%s{worker=\"%s\",id=\"%s\"} %s\n",
				name, obs.EscapeLabel(fw.Name), obs.EscapeLabel(fw.ID), value(fw))
		}
	}
	fmt.Fprintln(w, "# HELP wffleet_worker_shards_total Shard results merged per fleet worker (federated).")
	fmt.Fprintln(w, "# TYPE wffleet_worker_shards_total counter")
	for _, fw := range fs.Workers {
		fmt.Fprintf(w, "wffleet_worker_shards_total{worker=\"%s\",id=\"%s\"} %d\n",
			obs.EscapeLabel(fw.Name), obs.EscapeLabel(fw.ID), fw.Shards)
	}
	gauge("wffleet_worker_live", "Whether the worker's last contact is within the lease TTL.",
		func(fw FleetWorker) string { return fmt.Sprint(boolGauge(fw.Live)) })
	gauge("wffleet_worker_straggler", "Whether the coordinator has flagged the worker as a straggler.",
		func(fw FleetWorker) string { return fmt.Sprint(boolGauge(fw.Straggler)) })
	gauge("wffleet_worker_last_heartbeat_seconds", "Seconds since the worker was last heard from.",
		func(fw FleetWorker) string { return fmt.Sprintf("%g", fw.LastHeartbeat) })
	gauge("wffleet_worker_unit_seconds", "Per-unit shard execution EWMA the straggler detector tracks, in seconds.",
		func(fw FleetWorker) string { return fmt.Sprintf("%g", fw.UnitSeconds) })
	gauge("wffleet_worker_inflight_shards", "Shards executing on the worker, per its last heartbeat snapshot.",
		func(fw FleetWorker) string { return fmt.Sprint(fw.Inflight) })
	gauge("wffleet_worker_goroutines", "Goroutines on the worker, per its last heartbeat snapshot.",
		func(fw FleetWorker) string { return fmt.Sprint(fw.Goroutines) })
	gauge("wffleet_worker_heap_bytes", "Heap bytes allocated on the worker, per its last heartbeat snapshot.",
		func(fw FleetWorker) string { return fmt.Sprint(fw.HeapBytes) })
	wroteHeader := false
	for _, fw := range fs.Workers {
		if fw.Exec.Count == 0 && len(fw.Exec.Bounds) == 0 {
			continue
		}
		if !wroteHeader {
			fmt.Fprintln(w, "# HELP wffleet_shard_exec_seconds Per-worker shard execution latency, federated from heartbeat snapshots.")
			fmt.Fprintln(w, "# TYPE wffleet_shard_exec_seconds histogram")
			wroteHeader = true
		}
		fw.Exec.WriteSamples(w, "wffleet_shard_exec_seconds", labels(fw)...)
	}
}

// handleFleet serves the federated fleet view:
//
//	GET /fleet              JSON FleetStatus
//	GET /fleet?format=text  fixed-width table (wftop's data source)
//
// The view is tenant-agnostic — it describes infrastructure, not campaigns —
// but on a keyed server it still demands some valid API key, so the fleet's
// shape never leaks to unauthenticated callers. Without a Distributor (no
// -dist) the route answers 404.
func (s *Service) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tenants != nil {
		if _, ok := s.cfg.Tenants.Lookup(RequestAPIKey(r)); !ok {
			WriteError(w, http.StatusUnauthorized, ErrUnauthorized)
			return
		}
	}
	d := s.cfg.Distributor
	if d == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no fleet: this server runs without a distributor"))
		return
	}
	fs := d.Fleet()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fs.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(fs)
}
