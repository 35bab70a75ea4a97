package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/obs"
)

// spanNames flattens a snapshot's span tree into a name set.
func spanNames(spans []obs.SpanSnapshot) map[string]int {
	names := map[string]int{}
	var walk func([]obs.SpanSnapshot)
	walk = func(ss []obs.SpanSnapshot) {
		for _, sp := range ss {
			names[sp.Name]++
			walk(sp.Children)
		}
	}
	walk(spans)
	return names
}

// findSpan returns the first span with name anywhere in the tree.
func findSpan(spans []obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if sp := findSpan(spans[i].Children, name); sp != nil {
			return sp
		}
	}
	return nil
}

func getTrace(t *testing.T, url string, headers map[string]string) (*http.Response, obs.TraceSnapshot) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.TraceSnapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("bad trace payload: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, snap
}

// TestTraceEndpointLocalCampaign: a real local campaign leaves a complete
// span timeline — submit-time validation, the cache probe, queue wait with
// the DRR deficit, both execution phases on the local path, and the cache
// write — queryable as JSON and as a text waterfall.
func TestTraceEndpointLocalCampaign(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 1, QueueDepth: 8})
	req := tinyReq()
	req.Layers = true
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, snap := getTrace(t, ts.URL+"/campaigns/"+j.Key+"/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if snap.Campaign != j.Key {
		t.Errorf("trace campaign %q, want %q", snap.Campaign, j.Key)
	}
	if !snap.Complete {
		t.Error("finished campaign's trace is not complete")
	}
	names := spanNames(snap.Spans)
	for _, want := range []string{"validate", "cache-probe", "queue-wait", "build", "phase", "cache-write"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace (have %v)", want, names)
		}
	}
	if names["phase"] != 2 {
		t.Errorf("trace has %d phase spans, want 2 (sweep + layers)", names["phase"])
	}
	if b := findSpan(snap.Spans, "build"); b != nil && (b.Open || b.Attrs["model"] != "vgg19" || b.Attrs["engine"] != "winograd" || b.Attrs["workers"] == "") {
		t.Errorf("build span open %v with attrs %v, want closed with model vgg19, engine winograd and workers", b.Open, b.Attrs)
	}
	if ph := findSpan(snap.Spans, "phase"); ph.Attrs["path"] != "local" {
		t.Errorf("phase path attr %q, want local", ph.Attrs["path"])
	}
	if qw := findSpan(snap.Spans, "queue-wait"); qw.Open {
		t.Error("queue-wait span never ended")
	} else if _, ok := qw.Attrs["deficit"]; !ok {
		t.Errorf("queue-wait lacks the deficit attr: %v", qw.Attrs)
	}
	if cp := findSpan(snap.Spans, "cache-probe"); cp.Attrs["hit"] != "false" {
		t.Errorf("cache-probe hit attr %q, want false", cp.Attrs["hit"])
	}

	// The text rendering is a waterfall carrying the same span names.
	tresp, err := http.Get(ts.URL + "/campaigns/" + j.Key + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "complete") || !strings.Contains(text, "queue-wait") || !strings.Contains(text, "phase=sweep") {
		t.Errorf("text waterfall missing expected content:\n%s", text)
	}
}

// TestTraceCacheHitSynthetic: a campaign answered straight from the cache
// (no job, no queue) still gets a probe-only trace, so /trace explains the
// fast path instead of 404ing.
func TestTraceCacheHitSynthetic(t *testing.T) {
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		return []byte(`{"points":[]}`), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := sweepReq(404)
	key, err := Key(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cache.Put(key, []byte(`{"points":[]}`)); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); !st.Cached {
		t.Fatalf("pre-seeded cache not hit: %+v", st)
	}

	resp, snap := getTrace(t, ts.URL+"/campaigns/"+key+"/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d for cache hit", resp.StatusCode)
	}
	if !snap.Complete {
		t.Error("synthetic cache-hit trace not complete")
	}
	names := spanNames(snap.Spans)
	if names["cache-probe"] == 0 || names["validate"] == 0 {
		t.Errorf("synthetic trace spans %v, want validate + cache-probe", names)
	}
	if names["queue-wait"] != 0 {
		t.Error("cache hit recorded a queue-wait span — it never queued")
	}
	if cp := findSpan(snap.Spans, "cache-probe"); cp.Attrs["hit"] != "true" {
		t.Errorf("cache-probe hit attr %q, want true", cp.Attrs["hit"])
	}
}

// TestTraceCoalescedSharesRunnerTimeline: coalesced submitters share one
// execution, so they share one trace — and the coalescing tenant gains
// visibility of it.
func TestTraceCoalescedSharesRunnerTimeline(t *testing.T) {
	gate := make(chan struct{})
	tenants := &TenantTable{byKey: map[string]*Tenant{
		"key-a": {Name: "alice", Weight: 1},
		"key-b": {Name: "bob", Weight: 1},
	}}
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8, Tenants: tenants}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		<-gate
		return []byte(`{"points":[]}`), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := sweepReq(505)
	ja, err := s.SubmitFor(req, "key-a")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.SubmitFor(req, "key-b")
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Fatal("identical submissions did not coalesce")
	}
	if n := s.trace.Len(); n != 1 {
		t.Fatalf("coalesced submissions recorded %d traces, want 1", n)
	}
	close(gate)
	if _, err := ja.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"key-a", "key-b"} {
		resp, snap := getTrace(t, ts.URL+"/campaigns/"+ja.Key+"/trace", map[string]string{"X-API-Key": key})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace status %d for %s", resp.StatusCode, key)
		}
		if names := spanNames(snap.Spans); names["queue-wait"] == 0 {
			t.Errorf("%s sees trace without the runner's queue-wait span: %v", key, names)
		}
	}
}

// TestTraceCrossTenant404: a tenant that never submitted a campaign gets the
// same 404 for its trace as for the campaign itself — existence must not
// leak through the trace route.
func TestTraceCrossTenant404(t *testing.T) {
	tenants := &TenantTable{byKey: map[string]*Tenant{
		"key-a": {Name: "alice", Weight: 1},
		"key-b": {Name: "bob", Weight: 1},
	}}
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8, Tenants: tenants}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		return []byte(`{"points":[]}`), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.SubmitFor(sweepReq(606), "key-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	if resp, _ := getTrace(t, ts.URL+"/campaigns/"+j.Key+"/trace", map[string]string{"X-API-Key": "key-a"}); resp.StatusCode != http.StatusOK {
		t.Errorf("submitter's trace status %d, want 200", resp.StatusCode)
	}
	if resp, _ := getTrace(t, ts.URL+"/campaigns/"+j.Key+"/trace", map[string]string{"X-API-Key": "key-b"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant trace status %d, want 404", resp.StatusCode)
	}
	if resp, _ := getTrace(t, ts.URL+"/campaigns/"+j.Key+"/trace", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated trace status %d, want 401", resp.StatusCode)
	}
}

// TestMetricsExpositionValid: the full /metrics page — gauges, escaped
// tenant labels, latency histograms, build info — parses under the strict
// exposition validator, even with a tenant name that needs escaping.
func TestMetricsExpositionValid(t *testing.T) {
	weird := `back\slash"quoted"`
	tenants := &TenantTable{byKey: map[string]*Tenant{
		"key-w": {Name: weird, Weight: 2, Quota: 4},
	}}
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8, Tenants: tenants}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		progress(0, 1, 1)
		return []byte(`{"points":[]}`), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.SubmitFor(sweepReq(707), "key-w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Queue-wait and campaign histograms are observed by the runJob goroutine
	// after the job resolves; wait for them to land.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Campaign.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics failed strict validation: %v", err)
	}
	for _, fam := range []string{
		"wfserve_queue_depth", "wfserve_cache_hits_total",
		"wfserve_tenant_served_units_total",
		"wfserve_campaign_seconds", "wfserve_queue_wait_seconds",
		"wfserve_cache_probe_seconds",
		"wfserve_build_info", "wfserve_uptime_seconds",
	} {
		if exp.Types[fam] == "" {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	// The weird tenant name survives the escaper round-trip on both the
	// hand-written gauges and the histogram vec.
	foundGauge, foundHist := false, false
	for _, sm := range exp.Find("wfserve_tenant_served_units_total") {
		if sm.Labels["tenant"] == weird {
			foundGauge = true
		}
	}
	for _, sm := range exp.Find("wfserve_queue_wait_seconds_count") {
		if sm.Labels["tenant"] == weird {
			foundHist = true
		}
	}
	if !foundGauge {
		t.Error("escaped tenant label did not round-trip on the served-units counter")
	}
	if !foundHist {
		t.Error("escaped tenant label did not round-trip on the queue-wait histogram")
	}
}
