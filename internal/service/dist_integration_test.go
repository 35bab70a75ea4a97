package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	winofault "repro"
)

// stubDistributor is a Distributor returning canned bytes and fleet stats.
type stubDistributor struct {
	data    []byte
	workers []WorkerStat
	runs    int
}

func (d *stubDistributor) Run(ctx context.Context, key string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
	d.runs++
	return d.data, nil
}

func (d *stubDistributor) Workers() []WorkerStat { return d.workers }

// TestDistributedResultSkipsLocal: with a Distributor configured, its result
// is the job's result; the service never runs the campaign itself.
func TestDistributedResultSkipsLocal(t *testing.T) {
	d := &stubDistributor{data: []byte(`{"points":[]}`)}
	s, err := New(quiet(Config{Jobs: 1, QueueDepth: 8, Distributor: d}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	j, err := s.Submit(sweepReq(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"points":[]}` {
		t.Errorf("job served %q, want the distributed result", data)
	}
	if d.runs != 1 {
		t.Errorf("distributor ran %d times, want 1", d.runs)
	}
}

// TestHealthzReportsDrainState: serving is a 200 "serving", a draining
// coordinator answers 503 "draining" so load balancers and fleet workers
// stop routing to it, and new submissions are refused.
func TestHealthzReportsDrainState(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 1, QueueDepth: 8})
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, `"state":"serving"`) {
		t.Errorf("serving healthz = %d %q", code, body)
	}
	s.BeginDrain()
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, `"state":"draining"`) {
		t.Errorf("draining healthz = %d %q", code, body)
	}
	if _, err := s.Submit(tinyReq()); !errors.Is(err, ErrClosed) {
		t.Errorf("submission during drain returned %v, want ErrClosed", err)
	}
}

// TestMetricsEndpoint: the Prometheus text surface carries queue/cache
// counters and the per-worker shard counts of the fleet.
func TestMetricsEndpoint(t *testing.T) {
	d := &stubDistributor{
		data: []byte(`{"points":[]}`),
		workers: []WorkerStat{
			{ID: "w-1", Name: "alpha", Live: true, Shards: 3},
			{ID: "w-2", Name: "beta", Live: false, Shards: 2},
		},
	}
	s, err := New(quiet(Config{Jobs: 1, QueueDepth: 8, Distributor: d}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	ts := hts.URL

	// One miss (fresh submit) then one hit (resubmit after completion).
	j, err := s.Submit(sweepReq(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(sweepReq(5)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	for _, want := range []string{
		"wfserve_queue_depth 0",
		"wfserve_jobs_inflight 0",
		"wfserve_cache_hits_total 1",
		// One completed campaign resident: the stub's 13 result bytes.
		"wfserve_cache_entries 1",
		"wfserve_cache_resident_bytes 13",
		"wfserve_draining 0",
		"wfserve_workers_live 1",
		`wfserve_worker_shards_total{worker="alpha",id="w-1"} 3`,
		`wfserve_worker_shards_total{worker="beta",id="w-2"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if !strings.Contains(string(body), "wfserve_cache_misses_total") {
		t.Errorf("/metrics missing miss counter:\n%s", body)
	}
}
