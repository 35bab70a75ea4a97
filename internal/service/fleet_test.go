package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/obs"
)

// stubFleetStatus builds a two-worker fleet view, one flagged, with hostile
// label content in the worker names.
func stubFleetStatus() FleetStatus {
	h := obs.NewHistogram(obs.DurationBuckets)
	h.Observe(0.01)
	h.Observe(0.02)
	return FleetStatus{
		Epoch:             "epoch1",
		StragglerFactor:   3,
		MedianUnitSeconds: 75e-6,
		Workers: []FleetWorker{
			{
				ID: "w-1", Name: "node\nwith \"quotes\" and \\ and 蜂", Epoch: "epoch1",
				Live: true, Shards: 12, LastHeartbeat: 0.5, UnitSeconds: 75e-6,
				Inflight: 1, Goroutines: 9, HeapBytes: 1 << 20,
				Exec: h.Snapshot(), P50: h.Snapshot().Quantile(0.5), P99: h.Snapshot().Quantile(0.99),
			},
			{
				ID: "w-2", Name: "slowpoke", Epoch: "epoch1",
				Live: true, Straggler: true, Shards: 2, LastHeartbeat: 1.5, UnitSeconds: 0.2,
			},
		},
	}
}

// TestFleetEndpointJSONAndText: GET /fleet serves the distributor's view as
// JSON and as the fixed-width table, stragglers marked.
func TestFleetEndpointJSONAndText(t *testing.T) {
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 4, Distributor: &stubDistributor{fleet: stubFleetStatus()}},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			return []byte(`{"points":[]}`), nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet status %d", resp.StatusCode)
	}
	var fs FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatalf("bad fleet JSON: %v", err)
	}
	if fs.Epoch != "epoch1" || len(fs.Workers) != 2 {
		t.Fatalf("fleet JSON mangled: %+v", fs)
	}
	if !fs.Workers[1].Straggler || fs.Workers[1].ID != "w-2" {
		t.Fatalf("straggler flag lost in JSON: %+v", fs.Workers[1])
	}
	if fs.Workers[0].Exec.Count != 2 {
		t.Fatalf("exec histogram lost in JSON: %+v", fs.Workers[0].Exec)
	}

	tresp, err := http.Get(ts.URL + "/fleet?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	text := string(body)
	for _, want := range []string{"fleet epoch epoch1", "WORKER", "w-1", "w-2", "STRAGGLER", "slowpoke"} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet table missing %q:\n%s", want, text)
		}
	}
}

// TestFleetEndpointWithoutDistributor: a server with no fleet answers 404,
// not an empty table — there is no fleet to describe.
func TestFleetEndpointWithoutDistributor(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /fleet without a distributor: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetEndpointKeyedServer: the fleet view is tenant-agnostic but never
// anonymous on a keyed server — any valid key reads it, no key gets 401.
func TestFleetEndpointKeyedServer(t *testing.T) {
	tenants := &TenantTable{byKey: map[string]*Tenant{
		"key-a": {Name: "alice", Weight: 1},
	}}
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 4, Tenants: tenants, Distributor: &stubDistributor{fleet: stubFleetStatus()}},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			return []byte(`{"points":[]}`), nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /fleet status %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/fleet", nil)
	req.Header.Set("X-API-Key", "key-a")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed /fleet status %d, want 200", resp.StatusCode)
	}
}

// TestFleetMetricsFederatedExposition: the wffleet_* series render on
// /metrics, pass the strict exposition validator even with hostile worker
// names (newlines, quotes, UTF-8), and the names round-trip the escaper.
func TestFleetMetricsFederatedExposition(t *testing.T) {
	status := stubFleetStatus()
	hostile := status.Workers[0].Name
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 4, Distributor: &stubDistributor{fleet: status}},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			return []byte(`{"points":[]}`), nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics with federated fleet failed strict validation: %v", err)
	}
	for _, fam := range []string{
		"wffleet_worker_shards_total", "wffleet_worker_live", "wffleet_worker_straggler",
		"wffleet_worker_last_heartbeat_seconds", "wffleet_worker_unit_seconds",
		"wffleet_worker_inflight_shards", "wffleet_worker_goroutines",
		"wffleet_worker_heap_bytes", "wffleet_shard_exec_seconds",
	} {
		if exp.Types[fam] == "" {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	foundHostile, foundStraggler := false, false
	for _, sm := range exp.Find("wffleet_worker_shards_total") {
		if sm.Labels["worker"] == hostile && sm.Value == 12 {
			foundHostile = true
		}
	}
	for _, sm := range exp.Find("wffleet_worker_straggler") {
		if sm.Labels["id"] == "w-2" && sm.Value == 1 {
			foundStraggler = true
		}
	}
	if !foundHostile {
		t.Error("hostile worker name did not round-trip on the federated shard counter")
	}
	if !foundStraggler {
		t.Error("straggler gauge not exported for the flagged worker")
	}
	// The federated histogram only renders workers that reported one; the
	// snapshotless straggler must not contribute empty series.
	for _, sm := range exp.Find("wffleet_shard_exec_seconds_count") {
		if sm.Labels["id"] == "w-2" {
			t.Error("snapshotless worker rendered an exec histogram")
		}
	}
}

// TestTraceServedFromDiskAfterRestart: a finished campaign's trace spills to
// the -trace-dir store; a fresh Service over the same directories (a restart)
// serves it byte-identically even though its in-memory ring is empty.
func TestTraceServedFromDiskAfterRestart(t *testing.T) {
	traceDir, cacheDir := t.TempDir(), t.TempDir()
	cfg := quiet(Config{Jobs: 1, QueueDepth: 4, TraceDir: traceDir, CacheDir: cacheDir})

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	j, err := s1.Submit(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := getTraceBytes(t, ts1.URL+"/campaigns/"+j.Key+"/trace")
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	// "Restart": a new Service over the same cache and trace directories.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Close(ctx)
	})

	// Resubmitting is answered by the persisted cache — and must not shadow
	// the richer on-disk trace with a synthetic probe-only one.
	j2, err := s2.Submit(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); !st.Cached {
		t.Fatalf("restarted server did not serve the campaign from cache: %+v", st)
	}
	after := getTraceBytes(t, ts2.URL+"/campaigns/"+j2.Key+"/trace")
	if !bytes.Equal(before, after) {
		t.Fatalf("trace served after restart differs from the original:\nbefore: %s\nafter:  %s", before, after)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(after, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Complete {
		t.Error("disk-served trace not complete")
	}
	if names := spanNames(snap.Spans); names["phase"] == 0 || names["cache-write"] == 0 {
		t.Errorf("disk-served trace lost the execution span tree: %v", names)
	}
}

// TestTraceStoreMissWithoutDirIs404: with no -trace-dir configured, a ring
// miss stays a 404 exactly as before the store existed.
func TestTraceStoreMissWithoutDirIs404(t *testing.T) {
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 4}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		return []byte(`{"points":[]}`), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j, err := s.Submit(sweepReq(808))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Evict the finished trace with a flood of newer ones.
	for i := 0; i < obs.DefaultTraceCap+8; i++ {
		s.trace.Begin(fmt.Sprintf("flood%058d", i)).Finish()
	}
	if s.trace.Lookup(j.Key) != nil {
		t.Fatal("flood did not evict the finished trace")
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + j.Key + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ring miss without a store: status %d, want 404", resp.StatusCode)
	}
}

// getTraceBytes fetches a campaign trace as raw JSON bytes.
func getTraceBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
