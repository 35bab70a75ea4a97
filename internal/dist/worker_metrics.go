package dist

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// WorkerMetrics is the per-node instrumentation wfworker serves on its
// -debug-addr listener and ships to the coordinator inside heartbeats
// (metric federation): shard throughput, execution latency and in-flight
// work, alongside the build/runtime gauges every debug listener carries. A
// nil *WorkerMetrics records nothing, so the worker loop never branches on
// whether the debug listener is enabled.
type WorkerMetrics struct {
	start    time.Time
	shards   atomic.Int64 // completed shard executions (including failed ones)
	inflight atomic.Int64 // shards currently executing
	exec     *obs.Histogram
}

// NewWorkerMetrics builds the worker's metric set.
func NewWorkerMetrics() *WorkerMetrics {
	return &WorkerMetrics{start: time.Now(), exec: obs.NewHistogram(obs.DurationBuckets)}
}

// shardStarted marks one shard execution as in flight.
func (m *WorkerMetrics) shardStarted() {
	if m == nil {
		return
	}
	m.inflight.Add(1)
}

// observeShard records one completed shard execution (paired with
// shardStarted).
func (m *WorkerMetrics) observeShard(d time.Duration) {
	if m == nil {
		return
	}
	m.inflight.Add(-1)
	m.shards.Add(1)
	m.exec.Observe(d.Seconds())
}

// Snapshot captures the node's current metric state for a heartbeat. nil
// receivers report nil so the heartbeat body stays empty for an
// uninstrumented worker.
func (m *WorkerMetrics) Snapshot() *MetricsSnapshot {
	if m == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &MetricsSnapshot{
		Inflight:   m.inflight.Load(),
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		Exec:       m.exec.Snapshot(),
	}
}

// Handler serves the worker's debug mux: /debug/pprof/* plus /metrics with
// wfworker_build_info, wfworker_uptime_seconds, runtime gauges, the shard
// counter, the in-flight gauge and the shard execution histogram.
func (m *WorkerMetrics) Handler() http.Handler {
	return obs.DebugHandler("wfworker", m.start, func(w http.ResponseWriter) {
		fmt.Fprintf(w, "# HELP wfworker_shards_total Shard executions completed by this worker (including failures).\n")
		fmt.Fprintf(w, "# TYPE wfworker_shards_total counter\n")
		fmt.Fprintf(w, "wfworker_shards_total %d\n", m.shards.Load())
		fmt.Fprintf(w, "# HELP wfworker_inflight_shards Shards currently executing on this worker.\n")
		fmt.Fprintf(w, "# TYPE wfworker_inflight_shards gauge\n")
		fmt.Fprintf(w, "wfworker_inflight_shards %d\n", m.inflight.Load())
		m.exec.Write(w, "wfworker_shard_exec_seconds", "Wall time this worker spent executing one shard.")
	})
}
