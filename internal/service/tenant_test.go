package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	winofault "repro"
)

// TestParseTenantTable pins the key-file grammar: comments, attributes,
// shared tenants, and the malformed lines that must be rejected.
func TestParseTenantTable(t *testing.T) {
	table, err := ParseTenantTable(`
# production tenants
key-a alice weight=3 quota=10
key-b bob
key-a2 alice weight=3 quota=10
`)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := table.Lookup("key-a")
	if !ok || a.Name != "alice" || a.Weight != 3 || a.Quota != 10 {
		t.Fatalf("key-a resolved to %+v", a)
	}
	a2, _ := table.Lookup("key-a2")
	if a2 != a {
		t.Error("two keys of one tenant resolved to distinct tenants")
	}
	b, ok := table.Lookup("key-b")
	if !ok || b.Name != "bob" || b.Weight != 1 || b.Quota != 0 {
		t.Fatalf("key-b resolved to %+v (want defaults weight=1 quota=0)", b)
	}
	if _, ok := table.Lookup("nope"); ok {
		t.Error("unknown key resolved")
	}
	if _, ok := table.Lookup(""); ok {
		t.Error("empty key resolved")
	}

	for _, bad := range []string{
		"",                             // no entries
		"just-a-key",                   // missing tenant
		"k t weight=zero",              // non-numeric attribute
		"k t weight=0",                 // weight < 1
		"k t shards=3",                 // unknown attribute
		"k1 t weight=2\nk2 t weight=3", // conflicting redeclaration
		"k1 alice\nk1 bob",             // duplicate key
		"k1 alice\nk2 M\xfcller",       // Latin-1 name: not valid UTF-8
	} {
		if _, err := ParseTenantTable(bad); err == nil {
			t.Errorf("ParseTenantTable(%q) accepted, want error", bad)
		}
	}
	if _, err := ParseTenantTable("k1 alice\nk2 M\xfcller"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("a name that is not UTF-8 on line 2: error %v, want one naming line 2", err)
	}
}

// TestFairShareNoStarvation: a heavy tenant with a deep backlog cannot
// starve a light tenant — DRR gives the light tenant a slot after at most
// the heavy tenant's weight worth of campaigns.
func TestFairShareNoStarvation(t *testing.T) {
	table, err := ParseTenantTable("wk warm\nhk heavy weight=3\nlk light")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []uint64
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 16, Tenants: table},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			if req.Seed == 999 {
				<-gate // holds the single worker while the backlog builds
			} else {
				mu.Lock()
				order = append(order, req.Seed)
				mu.Unlock()
			}
			return []byte(`{"points":[]}`), nil
		})

	gateJob, err := s.SubmitFor(sweepReq(999), "wk")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the gate job occupies the worker so every later submission
	// queues behind it in a deterministic order.
	waitForState(t, gateJob, winofault.StateRunning)

	var jobs []*Job
	for seed := uint64(1); seed <= 4; seed++ {
		j, err := s.SubmitFor(sweepReq(seed), "hk")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	light, err := s.SubmitFor(sweepReq(100), "lk")
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, light)
	close(gate)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// Weight-3 heavy bursts three campaigns, then the cursor moves on: the
	// light tenant runs fourth, ahead of heavy's remaining backlog.
	want := []uint64{1, 2, 3, 100, 4}
	if len(order) != len(want) {
		t.Fatalf("executed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (light tenant starved past heavy's weight)", order, want)

		}
	}

	st := s.Stats()
	byName := map[string]TenantStat{}
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	if byName["heavy"].Admitted != 4 || byName["light"].Admitted != 1 {
		t.Errorf("tenant admission counters wrong: %+v", st.Tenants)
	}
}

// TestPriorityWithinTenant: priorities reorder one tenant's own queue —
// highest first — without touching other tenants.
func TestPriorityWithinTenant(t *testing.T) {
	table, err := ParseTenantTable("wk warm\ntk tenant")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []uint64
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 16, Tenants: table},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			if req.Seed == 999 {
				<-gate
			} else {
				mu.Lock()
				order = append(order, req.Seed)
				mu.Unlock()
			}
			return []byte(`{"points":[]}`), nil
		})

	gateJob, err := s.SubmitFor(sweepReq(999), "wk")
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, gateJob, winofault.StateRunning)

	low := sweepReq(1) // priority 0, submitted first
	urgent := sweepReq(2)
	urgent.Priority = 9
	j1, err := s.SubmitFor(low, "tk")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.SubmitFor(urgent, "tk")
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, j := range []*Job{j1, j2} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("execution order %v, want urgent (seed 2) before low (seed 1)", order)
	}
}

// TestTenantQuota429: a tenant at its quota gets 429 + Retry-After over
// HTTP; other tenants and unknown keys see their own statuses (202 / 401),
// and capacity frees once the tenant's campaign finishes.
func TestTenantQuota429(t *testing.T) {
	table, err := ParseTenantTable("qk capped quota=1\nfk free")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 16, Tenants: table},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			if req.Seed == 999 {
				<-gate
			}
			return []byte(`{"points":[]}`), nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(seed uint64, apiKey string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(sweepReq(seed))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/campaigns", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if apiKey != "" {
			req.Header.Set("X-API-Key", apiKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp
	}

	// Hold the worker so the capped tenant's campaign stays in flight.
	gateJob, err := s.Submit(sweepReq(999))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, gateJob, winofault.StateRunning)

	if resp := submit(1, "qk"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("capped tenant's first campaign returned %d, want 202", resp.StatusCode)
	}
	resp := submit(2, "qk")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	// The quota is per tenant: another tenant is untouched, and bad keys
	// are a 401, not a quota problem.
	if resp := submit(3, "fk"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant returned %d, want 202", resp.StatusCode)
	}
	if resp := submit(4, "intruder"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown key returned %d, want 401", resp.StatusCode)
	}
	if resp := submit(5, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("missing key returned %d, want 401", resp.StatusCode)
	}

	// Directly at the service layer the same rejection is typed.
	if _, err := s.SubmitFor(sweepReq(6), "qk"); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("SubmitFor over quota returned %v, want ErrQuotaExceeded", err)
	}

	// Draining the tenant's in-flight campaign frees its quota.
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.SubmitFor(sweepReq(7), "qk"); err == nil {
			break
		} else if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("resubmission after drain failed with %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never freed after the campaign finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignRoutesScopedToTenant: on a keyed server every /campaigns*
// route demands a valid API key, and status/result/cancel are visible only
// to tenants that submitted the campaign. Campaign IDs are deterministic
// request hashes, so without this scope any tenant that guessed another's
// request parameters could read its results or cancel its runs.
func TestCampaignRoutesScopedToTenant(t *testing.T) {
	table, err := ParseTenantTable("ka acme\nkb rival")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 16, Tenants: table},
		func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
			<-gate
			return []byte(`{"points":[]}`), nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(method, path, apiKey string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if apiKey != "" {
			req.Header.Set("X-API-Key", apiKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	submit := func(apiKey string) string {
		t.Helper()
		body, _ := json.Marshal(sweepReq(41))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/campaigns", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", apiKey)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission as %q returned %d, want 202", apiKey, resp.StatusCode)
		}
		var st winofault.CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}

	id := submit("ka")
	for _, route := range []string{"/campaigns/" + id, "/campaigns/" + id + "/result", "/campaigns/" + id + "/events"} {
		if code := do(http.MethodGet, route, ""); code != http.StatusUnauthorized {
			t.Errorf("keyless GET %s returned %d, want 401", route, code)
		}
		if code := do(http.MethodGet, route, "intruder"); code != http.StatusUnauthorized {
			t.Errorf("bad-key GET %s returned %d, want 401", route, code)
		}
		if code := do(http.MethodGet, route, "kb"); code != http.StatusNotFound {
			t.Errorf("cross-tenant GET %s returned %d, want 404", route, code)
		}
	}
	if code := do(http.MethodGet, "/campaigns/"+id, "ka"); code != http.StatusOK {
		t.Errorf("submitter's status poll returned %d, want 200", code)
	}
	if code := do(http.MethodDelete, "/campaigns/"+id, ""); code != http.StatusUnauthorized {
		t.Errorf("keyless cancel returned %d, want 401", code)
	}
	if code := do(http.MethodDelete, "/campaigns/"+id, "kb"); code != http.StatusNotFound {
		t.Errorf("cross-tenant cancel returned %d, want 404", code)
	}
	j, ok := s.Job(id)
	if !ok {
		t.Fatal("submitted job vanished")
	}
	if st := j.Status().State; st == winofault.StateFailed {
		t.Fatalf("cross-tenant DELETE canceled the campaign (state %s)", st)
	}

	// A coalescing submitter becomes a viewer of the shared job.
	if id2 := submit("kb"); id2 != id {
		t.Fatalf("identical request got a different ID: %s vs %s", id2, id)
	}
	if code := do(http.MethodGet, "/campaigns/"+id, "kb"); code != http.StatusOK {
		t.Errorf("coalesced tenant's status poll returned %d, want 200", code)
	}
	if code := do(http.MethodDelete, "/campaigns/"+id, "ka"); code != http.StatusOK {
		t.Errorf("submitter's cancel returned %d, want 200", code)
	}
}

// TestKeyIgnoresPriority: like Workers/DeltaExec/Backend, Priority is a
// scheduling hint — it must not change a campaign's content address.
func TestKeyIgnoresPriority(t *testing.T) {
	plain := sweepReq(1)
	hot := sweepReq(1)
	hot.Priority = 9
	k1, err := Key(plain)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(hot)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("priority changed the cache key: %.12s vs %.12s", k1, k2)
	}
}

// waitForState polls a job until it reaches state (the scheduler hands jobs
// to workers asynchronously).
func waitForState(t *testing.T, j *Job, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %.12s never reached %s (now %s)", j.Key, state, j.Status().State)
}

// FuzzParseTenantTable: no key-table text panics the parser, and every key
// of an accepted table looks up a tenant with a non-empty, valid UTF-8 name
// (it labels the tenant's /metrics series), a positive weight and a
// non-negative quota.
func FuzzParseTenantTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		table, err := ParseTenantTable(src)
		if err != nil {
			return
		}
		if table.Len() == 0 {
			t.Fatal("accepted an empty table")
		}
		for key, ten := range table.byKey {
			if got, ok := table.Lookup(key); !ok || got != ten {
				t.Errorf("key %q looks up %v, %v; want its tenant %q", key, got, ok, ten.Name)
			}
			if ten.Name == "" || !utf8.ValidString(ten.Name) {
				t.Errorf("key %q names tenant %q: empty or not valid UTF-8", key, ten.Name)
			}
			if ten.Weight < 1 || ten.Quota < 0 {
				t.Errorf("tenant %q has weight %d, quota %d", ten.Name, ten.Weight, ten.Quota)
			}
		}
	})
}
