// Package dist is the distributed campaign execution layer: a coordinator
// that shards a campaign batch's flattened (campaign, round) unit index
// space into contiguous ranges and farms them out over HTTP+JSON to a fleet
// of wfworker nodes, plus the worker loop those nodes run.
//
// The design leans entirely on the scheduler's determinism guarantee
// (internal/faultsim): every unit's result is a pure function of (seed,
// round, node), so per-unit agreement counts computed on any machine are
// bit-identical to a local run's, and merging shard count slices in unit
// index order before the index-ordered reduction reproduces the exact bytes
// a single process would cache. Shard count, worker arrival order, worker
// death and re-leasing can therefore never change a result — only its
// wall-clock time. See DESIGN.md "Distributed execution".
//
// Topology: workers pull. A worker registers with the coordinator, then
// asks for shard leases and posts back per-unit counts; a heartbeat keeps
// its registration and leases fresh. A lease request that finds nothing
// queued is held open for up to the coordinator's Poll and answered the
// moment a shard is queued, so an idle worker starts new work at once and
// still asks only about once per Poll. Leases expire — a worker that dies
// or goes silent past the lease TTL has its shards re-queued and re-leased
// to the surviving fleet. The coordinator never dials workers, so nodes
// behind NAT or ephemeral containers join with zero configuration.
package dist

import (
	winofault "repro"
	"repro/internal/obs"
)

// Campaign phases a shard task can belong to: indices into the campaign's
// winofault.Plan phases. A campaign request yields one sweep batch and, when
// Layers is set, one layer-sensitivity batch; the two have independent unit
// index spaces, so tasks name theirs explicitly.
const (
	// PhaseSweep is the BER sweep batch.
	PhaseSweep = 0
	// PhaseLayers is the layer-sensitivity batch at the sweep's middle BER.
	PhaseLayers = 1
)

// registerRequest is the body of POST /workers.
type registerRequest struct {
	Name string `json:"name"`
}

// registerResponse assigns the worker its ID and the coordinator's timing
// contract: heartbeat well inside LeaseMillis or lose registration and
// leases; while idle, send a lease request about every PollMillis. The
// coordinator holds an idle request for up to PollMillis, so after a 204 a
// worker sleeps only the part of PollMillis its request did not already
// wait.
type registerResponse struct {
	ID          string `json:"id"`
	LeaseMillis int64  `json:"leaseMillis"`
	PollMillis  int64  `json:"pollMillis"`
}

// MetricsSnapshot is the compact per-node metric set a worker ships inside
// each heartbeat (metric federation): the coordinator keeps each worker's
// latest snapshot and joins it into that worker's wffleet_* series on
// /metrics and its /fleet row, so an operator scrapes one address instead of
// every node's private -debug-addr.
type MetricsSnapshot struct {
	// Inflight is the number of shards currently executing (0 or 1 today —
	// the lease loop is serial — but the wire form doesn't assume that).
	Inflight int64 `json:"inflight"`
	// Goroutines and HeapBytes are the node's runtime health gauges.
	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heapBytes"`
	// Exec is the node's shard execution latency histogram. Bounds ride along
	// so the coordinator can validate the layout before storing it.
	Exec obs.HistogramSnapshot `json:"exec"`
}

// heartbeatRequest is the (optional) body of POST /workers/{id}/heartbeat.
// Older workers post an empty body; the snapshot is additive.
type heartbeatRequest struct {
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// ShardTask is one leased unit range of a campaign phase. The worker
// re-canonicalizes Req (service.Key) and refuses the task unless its own
// key equals Key — both sides must agree on the campaign's identity before
// any counts are trusted.
type ShardTask struct {
	// ID names this shard; it is stable across re-leases, so a result from
	// a presumed-dead worker that raced a re-lease is still mergeable (the
	// counts are bit-identical by determinism — first one in wins).
	ID string `json:"id"`
	// Key is the campaign's content address (service.Key of Req).
	Key string `json:"key"`
	// Req is the full campaign spec; the worker rebuilds the system from it.
	Req winofault.CampaignRequest `json:"req"`
	// Phase selects the unit index space (PhaseSweep or PhaseLayers).
	Phase int `json:"phase"`
	// Lo, Hi bound the unit range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ShardResult is the body of POST /workers/{id}/result: the per-unit
// agreement counts of a completed shard, or the error that prevented them.
type ShardResult struct {
	Task   string `json:"task"`
	Counts []int  `json:"counts,omitempty"`
	Error  string `json:"error,omitempty"`
	// ExecNanos is the worker-side wall time spent executing the shard, in
	// nanoseconds. It rides back in the result message so the coordinator can
	// stitch worker execution time into the campaign trace without any clock
	// agreement between the two machines — a duration survives clock skew,
	// an absolute timestamp would not.
	ExecNanos int64 `json:"execNanos,omitempty"`
}
