package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	winofault "repro"
)

// stubDistributor is a Distributor with canned behavior, so the service's
// side of the seam is testable without a live coordinator: Run returns data,
// Fleet returns fleet, and CampaignDone calls onDone when set.
type stubDistributor struct {
	data   []byte
	fleet  FleetStatus
	onDone func(key string)
	runs   int
}

func (d *stubDistributor) Run(ctx context.Context, key string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
	d.runs++
	return d.data, nil
}

func (d *stubDistributor) CampaignDone(key string) {
	if d.onDone != nil {
		d.onDone(key)
	}
}

func (d *stubDistributor) Fleet() FleetStatus { return d.fleet }

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

// TestCampaignDoneOncePerTerminalCampaign: the service tells its Distributor
// that a campaign is over exactly once per run — after a success (with the
// result already cached, so a durable coordinator never retires a campaign
// whose bytes a crash could still lose), after a failure and after a
// cancellation — and a cache hit, which runs nothing, tells it nothing.
func TestCampaignDoneOncePerTerminalCampaign(t *testing.T) {
	d := &stubDistributor{}
	started := make(chan struct{})
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8, Distributor: d},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			switch req.Seed {
			case 1:
				return []byte(`{"points":[]}`), nil
			case 2:
				return nil, errors.New("shard retries exhausted")
			default:
				close(started)
				<-ctx.Done()
				return nil, ctx.Err()
			}
		})
	var mu sync.Mutex
	calls := map[string]int{}
	cachedAtDone := map[string]bool{}
	d.onDone = func(key string) {
		_, cached := s.cache.getMemory(key)
		mu.Lock()
		defer mu.Unlock()
		calls[key]++
		cachedAtDone[key] = cached
	}

	submit := func(seed uint64) *Job {
		t.Helper()
		j, err := s.Submit(sweepReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ok, failed, canceled := submit(1), submit(2), submit(3)
	<-started
	s.Cancel(canceled.Key)
	if _, err := ok.Wait(context.Background()); err != nil {
		t.Fatalf("successful campaign: %v", err)
	}
	if _, err := failed.Wait(context.Background()); err == nil {
		t.Fatal("failing campaign succeeded")
	}
	if _, err := canceled.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign: %v, want context.Canceled", err)
	}
	if hit := submit(1); !hit.Status().Cached {
		t.Fatal("resubmitted success was not a cache hit")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, tc := range []struct {
		name   string
		key    string
		cached bool
	}{{"success", ok.Key, true}, {"failure", failed.Key, false}, {"cancellation", canceled.Key, false}} {
		if calls[tc.key] != 1 {
			t.Errorf("%s: CampaignDone called %d times, want 1", tc.name, calls[tc.key])
		}
		if cachedAtDone[tc.key] != tc.cached {
			t.Errorf("%s: cache held the key at CampaignDone = %v, want %v", tc.name, cachedAtDone[tc.key], tc.cached)
		}
	}
	if len(calls) != 3 {
		t.Errorf("CampaignDone saw %d campaigns, want 3: %v", len(calls), calls)
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

// TestMetricsEndpoint: the Prometheus text surface carries the queue, cache
// and drain series. The fleet's per-worker series are the federated wffleet_*
// families (TestFleetMetricsFederatedExposition).
func TestMetricsEndpoint(t *testing.T) {
	d := &stubDistributor{data: []byte(`{"points":[]}`)}
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
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if !strings.Contains(string(body), "wfserve_cache_misses_total") {
		t.Errorf("/metrics missing miss counter:\n%s", body)
	}
}
