package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

// twoWorkers registers a fast and a slow worker directly on a coordinator
// (no HTTP, no goroutines) and seeds their per-unit exec EWMAs, so the
// straggler policy is testable without timing.
func twoWorkers(t *testing.T, c *Coordinator, fastPer, slowPer float64) (fastID, slowID string) {
	t.Helper()
	fast, err := c.register("fast")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.register("slow")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	c.mu.Lock()
	c.workers[fast.ID].unitEWMA, c.workers[fast.ID].samples = fastPer, 3
	c.workers[slow.ID].unitEWMA, c.workers[slow.ID].samples = slowPer, 3
	c.recomputeStragglersLocked(now)
	c.mu.Unlock()
	return fast.ID, slow.ID
}

// queueShard puts one dispatchable shard on the coordinator's pending queue
// and, like every path that queues one, answers the held lease requests.
func queueShard(c *Coordinator, id string) {
	run := &campaignRun{counts: make([]int, 1), total: 1, remaining: 1, done: make(chan struct{})}
	c.mu.Lock()
	c.pending = append(c.pending, &shard{task: ShardTask{ID: id, Lo: 0, Hi: 1}, run: run})
	c.wakeLocked()
	c.mu.Unlock()
}

// TestStragglerFlaggingAndLeaseDenial: a worker whose per-unit EWMA dwarfs
// the fleet median is flagged and stops receiving leases while a healthy
// worker is live; the healthy worker keeps leasing.
func TestStragglerFlaggingAndLeaseDenial(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fastID, slowID := twoWorkers(t, c, 50e-6, 10e-3)

	fs := c.Fleet()
	if len(fs.Workers) != 2 {
		t.Fatalf("fleet has %d workers, want 2", len(fs.Workers))
	}
	for _, fw := range fs.Workers {
		switch fw.ID {
		case fastID:
			if fw.Straggler {
				t.Error("fast worker flagged")
			}
		case slowID:
			if !fw.Straggler {
				t.Error("slow worker not flagged")
			}
		}
	}
	if fs.MedianUnitSeconds != 50e-6 {
		t.Errorf("fleet median %g, want the faster worker's 50e-6 (lower median)", fs.MedianUnitSeconds)
	}

	queueShard(c, "t1")
	if task, _, err := c.lease(slowID); err != nil || task != nil {
		t.Fatalf("flagged straggler got a lease: task=%v err=%v", task, err)
	}
	if task, _, err := c.lease(fastID); err != nil || task == nil {
		t.Fatalf("healthy worker denied the lease: task=%v err=%v", task, err)
	}
}

// TestStragglerProbationProbe: after the probation window a flagged worker
// earns exactly one probe lease (to re-measure itself), and the probation
// clock restarts so it cannot immediately take a second.
func TestStragglerProbationProbe(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, slowID := twoWorkers(t, c, 50e-6, 10e-3)

	c.mu.Lock()
	c.workers[slowID].flaggedAt = time.Now().Add(-c.cfg.StragglerProbation - time.Second)
	c.mu.Unlock()
	queueShard(c, "t1")
	queueShard(c, "t2")
	if task, _, err := c.lease(slowID); err != nil || task == nil {
		t.Fatalf("post-probation probe lease denied: task=%v err=%v", task, err)
	}
	if task, _, err := c.lease(slowID); err != nil || task != nil {
		t.Fatalf("straggler got a second lease inside the restarted probation: task=%v err=%v", task, err)
	}
}

// TestStragglerLeasesWhenAlone: benching a straggler must never stall the
// queue — with no healthy live worker, the flagged one still leases.
func TestStragglerLeasesWhenAlone(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fastID, slowID := twoWorkers(t, c, 50e-6, 10e-3)

	c.mu.Lock()
	c.workers[fastID].lastSeen = time.Now().Add(-2 * c.cfg.LeaseTTL) // fast worker dies
	c.mu.Unlock()
	queueShard(c, "t1")
	if task, _, err := c.lease(slowID); err != nil || task == nil {
		t.Fatalf("lone straggler denied work with nobody else alive: task=%v err=%v", task, err)
	}
}

// TestStragglerNeedsTwoMeasured: with fewer than two live measured workers
// every flag clears — a lone worker has no fleet to be slower than.
func TestStragglerNeedsTwoMeasured(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fastID, slowID := twoWorkers(t, c, 50e-6, 10e-3)

	c.mu.Lock()
	c.workers[fastID].samples = 0 // fast worker no longer measured
	c.recomputeStragglersLocked(time.Now())
	flagged := c.workers[slowID].straggler
	c.mu.Unlock()
	if flagged {
		t.Fatal("straggler flag survived with only one measured worker")
	}
}

// TestStragglerAbsoluteFloor: when the whole fleet executes units in
// microseconds, a 10x ratio alone must not flag — the EWMA has to clear the
// median by the absolute floor too, or scheduling noise benches healthy nodes.
func TestStragglerAbsoluteFloor(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, slowID := twoWorkers(t, c, 1e-6, 10e-6) // 10x apart, both microscopic

	c.mu.Lock()
	flagged := c.workers[slowID].straggler
	c.mu.Unlock()
	if flagged {
		t.Fatal("sub-floor gap flagged a worker")
	}
}

// TestHeartbeatStoresSnapshot: a heartbeat snapshot lands in the fleet view;
// a snapshot whose histogram layout is malformed (hostile or torn on the
// wire) has the histogram dropped before it can poison the exposition page.
func TestHeartbeatStoresSnapshot(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg, err := c.register("node")
	if err != nil {
		t.Fatal(err)
	}

	h := obs.NewHistogram(obs.DurationBuckets)
	h.Observe(0.25)
	h.Observe(0.5)
	snap := &MetricsSnapshot{Inflight: 1, Goroutines: 12, HeapBytes: 1 << 20, Exec: h.Snapshot()}
	if !c.heartbeat(reg.ID, snap) {
		t.Fatal("heartbeat for a registered worker rejected")
	}
	fw := c.Fleet().Workers[0]
	if fw.Inflight != 1 || fw.Goroutines != 12 || fw.HeapBytes != 1<<20 {
		t.Fatalf("snapshot gauges lost: %+v", fw)
	}
	if fw.Exec.Count != 2 || fw.P50 <= 0 || fw.P99 <= 0 {
		t.Fatalf("exec histogram lost: count=%d p50=%g p99=%g", fw.Exec.Count, fw.P50, fw.P99)
	}

	// Malformed histogram: Counts shorter than Bounds+1 would panic the
	// exposition writer — the coordinator must drop it at the door.
	bad := &MetricsSnapshot{Exec: obs.HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{5}, Count: 5}}
	if !c.heartbeat(reg.ID, bad) {
		t.Fatal("heartbeat with a bad snapshot rejected outright (liveness must survive)")
	}
	fw = c.Fleet().Workers[0]
	if len(fw.Exec.Bounds) != 0 || fw.Exec.Count != 0 {
		t.Fatalf("malformed exec histogram stored: %+v", fw.Exec)
	}

	if c.heartbeat("w-unknown", snap) {
		t.Fatal("heartbeat for an unknown worker accepted")
	}
}

// TestHeartbeatBodyTolerated: over HTTP, an empty or unparseable heartbeat
// body (older workers, partial writes) still refreshes liveness — it is
// treated as snapshotless, never rejected.
func TestHeartbeatBodyTolerated(t *testing.T) {
	c, srv := fleet(t, CoordinatorConfig{LeaseTTL: time.Minute}, 0)
	reg, err := c.register("old-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"", "not json at all", `{"metrics":{"exec":{"bounds":"wat"}}}`} {
		resp, err := http.Post(srv+"/workers/"+reg.ID+"/heartbeat", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("heartbeat with body %q got %d, want 204", body, resp.StatusCode)
		}
	}
	for _, w := range c.Workers() {
		if w.ID == reg.ID && !w.Live {
			t.Fatal("tolerated heartbeat did not refresh liveness")
		}
	}
}

// TestWorkerMetricsSnapshot: the worker-side snapshot carries inflight,
// runtime gauges and a valid exec histogram, and inflight tracks the
// start/observe pairing.
func TestWorkerMetricsSnapshot(t *testing.T) {
	m := NewWorkerMetrics()
	m.shardStarted()
	snap := m.Snapshot()
	if snap.Inflight != 1 {
		t.Fatalf("inflight %d mid-shard, want 1", snap.Inflight)
	}
	if snap.Goroutines <= 0 || snap.HeapBytes == 0 {
		t.Fatalf("runtime gauges empty: %+v", snap)
	}
	m.observeShard(5 * time.Millisecond)
	snap = m.Snapshot()
	if snap.Inflight != 0 {
		t.Fatalf("inflight %d after observe, want 0", snap.Inflight)
	}
	if snap.Exec.Count != 1 || !snap.Exec.Valid() {
		t.Fatalf("exec snapshot wrong: %+v", snap.Exec)
	}
}

// TestJournalEpochRoundTrip: the campaign record's epoch survives replay (and
// the compaction snapshot), so a recovered campaign can link its previous
// incarnation's trace.
func TestJournalEpochRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	req := tinyReq()
	j.append(journalRecord{T: recCampaign, Key: "aaa", Req: &req, Epoch: "prior-epoch"})
	j.close()

	_, reg, err := openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	cs := reg["aaa"]
	if cs == nil {
		t.Fatal("campaign not replayed")
	}
	if cs.epoch != "prior-epoch" {
		t.Fatalf("replayed epoch %q, want prior-epoch", cs.epoch)
	}
	recs := snapshotRecords(reg)
	found := false
	for _, rec := range recs {
		if rec.T == recCampaign && rec.Key == "aaa" {
			found = true
			if rec.Epoch != "prior-epoch" {
				t.Fatalf("compaction snapshot epoch %q, want prior-epoch", rec.Epoch)
			}
		}
	}
	if !found {
		t.Fatal("campaign record missing from compaction snapshot")
	}
}

// TestStragglerEndToEnd: a real two-worker fleet where one node carries an
// artificial exec delay. The slow worker gets flagged from its merged shard
// timings, receives no further leases while the fast worker is live, and the
// campaign bytes stay identical to local execution throughout.
func TestStragglerEndToEnd(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	// The slow node's delay scales with what a shard costs on this host, so
	// the test holds under -race too, where shards run several times slower.
	// 10x keeps the slow worker's per-unit time far above the 3x flag
	// threshold even when contention also slows the fast worker's shards.
	delay := 10 * shardTime(t, req)
	t.Logf("shard delay %v", delay)
	c, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:   5 * time.Second,
		Poll:       10 * time.Millisecond,
		ShardUnits: 1,
		Logger:     quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		RunWorker(ctx, WorkerConfig{Server: ts.URL, Name: "fast", Workers: 1, Logger: quiet(), Metrics: NewWorkerMetrics()})
	}()
	go func() {
		defer wg.Done()
		RunWorker(ctx, WorkerConfig{Server: ts.URL, Name: "slow", Workers: 1, Logger: quiet(), Metrics: NewWorkerMetrics(),
			ExecDelay: delay})
	}()
	t.Cleanup(func() { cancel(); wg.Wait(); ts.Close(); c.Close() })
	waitForWorkers(t, c, 2)

	// Run campaigns (distinct seeds, so nothing coalesces or prefills) until
	// the slow worker has merged a shard and been flagged.
	slowID := ""
	deadline := time.Now().Add(60 * time.Second)
	for seed := uint64(1); slowID == ""; seed++ {
		if time.Now().After(deadline) {
			t.Fatal("slow worker never flagged as straggler")
		}
		r := req
		r.Seed = seed
		key, err := service.Key(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background(), key, r, func(int, int, int) {}); err != nil {
			t.Fatal(err)
		}
		for _, fw := range c.Fleet().Workers {
			if fw.Name == "slow" && fw.Straggler {
				slowID = fw.ID
			}
		}
	}

	// Flagged: the slow worker must sit out the next campaign entirely while
	// the fast worker is live — its merged-shard count stays frozen — and the
	// result must still match local bytes exactly.
	before := workerShards(c, slowID)
	r := req
	r.Seed = 9999
	key, err := service.Key(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), key, r, func(int, int, int) {})
	if err != nil {
		t.Fatal(err)
	}
	if want := localBytes(t, r); !bytes.Equal(got, want) {
		t.Fatal("distributed bytes diverged from local after straggler benching")
	}
	if after := workerShards(c, slowID); after != before {
		t.Fatalf("flagged straggler still leased shards: %d -> %d", before, after)
	}
}

// shardTime measures a worker's first single-unit shard of req on this host:
// the plan build plus one unit, on one faultsim worker. Each distinct
// campaign costs every worker that build again, so this is what a fast
// worker's per-unit samples read in TestStragglerEndToEnd.
func shardTime(t *testing.T, req winofault.CampaignRequest) time.Duration {
	t.Helper()
	req.Workers = 1
	start := time.Now()
	plan, err := winofault.NewPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Counts(context.Background(), PhaseSweep, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// workerShards reads one worker's merged-shard count from the fleet view.
func workerShards(c *Coordinator, id string) int64 {
	for _, fw := range c.Fleet().Workers {
		if fw.ID == id {
			return fw.Shards
		}
	}
	return -1
}
