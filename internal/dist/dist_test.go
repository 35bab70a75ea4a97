package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

func quiet() *slog.Logger { return slog.New(slog.DiscardHandler) }

// tinyReq is a real but fast campaign (the same shape the service tests
// use), with the layer-sensitivity phase on so both unit spaces shard.
func tinyReq() winofault.CampaignRequest {
	return winofault.CampaignRequest{
		Model:     "vgg19",
		Engine:    "winograd",
		InputSize: 16,
		Samples:   4,
		Rounds:    1,
		BERs:      []float64{1e-9, 1e-8},
		Layers:    true,
	}
}

// localBytes runs req through the in-process service path — the reference
// every distributed execution must match byte-for-byte.
func localBytes(t *testing.T, req winofault.CampaignRequest) []byte {
	t.Helper()
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fleet stands up a coordinator (with its worker HTTP surface) and n real
// workers, and tears everything down with the test.
func fleet(t *testing.T, cfg CoordinatorConfig, n int) (*Coordinator, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet()
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		name := string(rune('a' + i))
		go func() {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{Server: ts.URL, Name: name, Workers: 1, Logger: quiet()})
		}()
	}
	if n > 0 {
		waitForWorkers(t, c, n)
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
		c.Close()
	})
	return c, ts.URL
}

func waitForWorkers(t testing.TB, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range c.Workers() {
			if w.Live {
				live++
			}
		}
		if live >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("workers did not register in time")
}

// TestDistributedRunBitIdentical is the tentpole acceptance test: a
// campaign sharded unit-by-unit across two workers produces bytes identical
// to the local execution path — including the layer-sensitivity phase — so
// the content-addressed cache stores the same entry either way.
func TestDistributedRunBitIdentical(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}, 2)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]int{} // batch -> max done
	got, err := c.Run(context.Background(), key, req, func(batch, done, total int) {
		mu.Lock()
		if done > seen[batch] {
			seen[batch] = done
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed bytes differ from local:\n%s\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("progress not reported for both phases: %v", seen)
	}

	// Both workers actually executed shards (ShardUnits=1 guarantees more
	// shards than workers; the sweep alone has 2).
	stats := c.Workers()
	if len(stats) != 2 {
		t.Fatalf("fleet size %d, want 2", len(stats))
	}
	var total int64
	for _, w := range stats {
		if w.Shards == 0 {
			t.Errorf("worker %s (%q) executed no shards", w.ID, w.Name)
		}
		total += w.Shards
	}
	if total < 3 {
		t.Errorf("fleet executed %d shards, want at least 3 (2 sweep units + layers)", total)
	}
}

// TestDistributedScenarioBitIdentical: the hardware-located acceptance
// invariant — a stuck-at-PE campaign sharded across a two-worker fleet
// produces bytes identical to the local execution path. The workers rebuild
// the scenario injection from the re-canonicalized spec alone (sampled
// stuck coordinates resolve from the keyed seed), so no scenario state
// crosses the wire beyond the request itself.
func TestDistributedScenarioBitIdentical(t *testing.T) {
	req := tinyReq()
	req.Rounds = 2
	req.Layers = false
	req.Scenario = &winofault.Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24}
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}, 2)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), key, req, func(batch, done, total int) {})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed scenario bytes differ from local:\n%s\n%s", got, want)
	}
	for _, w := range c.Workers() {
		if w.Shards == 0 {
			t.Errorf("worker %s executed no shards of the scenario campaign", w.ID)
		}
	}
}

// TestServiceDistributedCacheBytes: the full service path with a
// Distributor — submit, distribute, cache — serves bytes identical to a
// service with no fleet at all.
func TestServiceDistributedCacheBytes(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 2}, 2)
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed service bytes differ from local:\n%s\n%s", got, want)
	}
	// The second submission is a cache hit serving those very bytes.
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if !st.Cached {
		t.Error("second submission not served from cache")
	}
	if data, _ := j2.Wait(context.Background()); !bytes.Equal(data, want) {
		t.Error("cached bytes differ from local bytes")
	}
}

// rawWorker speaks the wire protocol by hand: a worker the test can kill at
// an exact point in the lease lifecycle.
type rawWorker struct {
	t    *testing.T
	base string
	id   string
}

func newRawWorker(t *testing.T, base, name string) *rawWorker {
	t.Helper()
	body, _ := json.Marshal(registerRequest{Name: name})
	resp, err := http.Post(base+"/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register returned %d", resp.StatusCode)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	return &rawWorker{t: t, base: base, id: reg.ID}
}

// leaseOne polls until it holds a shard task, then returns it.
func (rw *rawWorker) leaseOne(deadline time.Duration) *ShardTask {
	rw.t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := http.Post(rw.base+"/workers/"+rw.id+"/lease", "application/json", nil)
		if err != nil {
			rw.t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var task ShardTask
			err := json.NewDecoder(resp.Body).Decode(&task)
			resp.Body.Close()
			if err != nil {
				rw.t.Fatal(err)
			}
			return &task
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	rw.t.Fatal("no shard lease within deadline")
	return nil
}

// TestReLeaseAfterWorkerDeath: a worker that leases a shard and dies (no
// heartbeat, no result) must have the shard re-leased to the surviving
// fleet, and the merged result must still be byte-identical to local.
func TestReLeaseAfterWorkerDeath(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	want := localBytes(t, req)

	cfg := CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0) // no real workers yet
	dead := newRawWorker(t, url, "doomed")

	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	type runOut struct {
		data []byte
		err  error
	}
	out := make(chan runOut, 1)
	go func() {
		data, err := c.Run(context.Background(), key, req, func(int, int, int) {})
		out <- runOut{data, err}
	}()

	// The doomed worker takes one shard and vanishes without reporting.
	task := dead.leaseOne(5 * time.Second)
	if task.Key != key {
		t.Fatalf("leased task key %.12s, want %.12s", task.Key, key)
	}

	// A healthy worker joins and must end up executing everything —
	// including the dead worker's shard once its lease expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RunWorker(ctx, WorkerConfig{Server: url, Name: "survivor", Workers: 1, Logger: quiet()})

	select {
	case r := <-out:
		if r.err != nil {
			t.Fatalf("Run failed: %v", r.err)
		}
		if !bytes.Equal(r.data, want) {
			t.Errorf("re-leased run bytes differ from local:\n%s\n%s", r.data, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not complete after worker death")
	}
}

// tracedCtx attaches a fresh campaign trace to ctx, so a test can read back
// which shards ran where.
func tracedCtx(ctx context.Context, key string) (context.Context, *obs.Trace) {
	tr := obs.NewRecorder(0).Begin(key)
	return obs.With(ctx, obs.Obs{Trace: tr}), tr
}

// spansNamed lists the trace's spans with the given name, at any depth.
func spansNamed(tr *obs.Trace, name string) []obs.SpanSnapshot {
	var out []obs.SpanSnapshot
	var walk func([]obs.SpanSnapshot)
	walk = func(spans []obs.SpanSnapshot) {
		for _, sp := range spans {
			if sp.Name == name {
				out = append(out, sp)
			}
			walk(sp.Children)
		}
	}
	walk(tr.Snapshot().Spans)
	return out
}

// unitsByWorker sums the unit ranges of shard spans by their worker attr.
func unitsByWorker(t *testing.T, spans []obs.SpanSnapshot) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, sp := range spans {
		lo, err1 := strconv.Atoi(sp.Attrs["lo"])
		hi, err2 := strconv.Atoi(sp.Attrs["hi"])
		if err1 != nil || err2 != nil {
			t.Fatalf("shard span with bad range attrs: %v", sp.Attrs)
		}
		out[sp.Attrs["worker"]] += hi - lo
	}
	return out
}

// planUnits is the campaign's total unit count across its phases.
func planUnits(t *testing.T, req winofault.CampaignRequest) int {
	t.Helper()
	plan, err := winofault.NewPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ph := range plan.Phases() {
		n += ph.Units
	}
	return n
}

// TestNoWorkersRegistered: with an empty fleet the coordinator executes the
// campaign itself and returns the local path's bytes. Under automatic shard
// sizing each phase is one in-process range, so no shard is ever leased. Its
// first shard builds the plan's executor: one build span, outside any phase.
func TestNoWorkersRegistered(t *testing.T) {
	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: time.Second}, 0)
	req := tinyReq()
	want := localBytes(t, req)
	key, _ := service.Key(req)
	ctx, tr := tracedCtx(context.Background(), key)
	got, err := c.Run(ctx, key, req, func(int, int, int) {})
	if err != nil {
		t.Fatalf("Run with no workers: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("in-process bytes differ from local:\n%s\n%s", got, want)
	}
	spans := spansNamed(tr, "shard")
	if len(spans) != 2 {
		t.Errorf("%d shard spans, want one range per phase", len(spans))
	}
	if by := unitsByWorker(t, spans); len(by) != 1 || by[inProcessWorker] != planUnits(t, req) {
		t.Errorf("units by worker %v, want all %d in-process", by, planUnits(t, req))
	}
	if len(c.leased) != 0 || len(c.pending) != 0 {
		t.Errorf("%d leased, %d pending shards left behind", len(c.leased), len(c.pending))
	}
	if builds, nested := buildSpans(tr.Snapshot().Spans, false); builds != 1 || nested != 0 {
		t.Errorf("%d build spans (%d inside a phase), want one outside the phases", builds, nested)
	}
	checkPhaseSpans(t, tr.Snapshot().Spans)
}

// progressLog is a Distributor that records the progress and the trace of
// the campaigns the coordinator runs for the service.
type progressLog struct {
	*Coordinator
	mu      sync.Mutex
	reports [][3]int // batch, done, total
	trace   *obs.Trace
}

func (p *progressLog) Run(ctx context.Context, key string, req winofault.CampaignRequest, progress func(batch, done, total int)) ([]byte, error) {
	p.mu.Lock()
	p.trace = obs.From(ctx).Trace
	p.mu.Unlock()
	return p.Coordinator.Run(ctx, key, req, func(batch, done, total int) {
		p.mu.Lock()
		p.reports = append(p.reports, [3]int{batch, done, total})
		p.mu.Unlock()
		progress(batch, done, total)
	})
}

// TestFleetDiesMidCampaign: when the last worker goes silent after merging
// k units, the coordinator finishes the campaign in-process, executing
// exactly the total-k units still missing. Progress never goes backwards and
// the tenant is billed each unit once.
func TestFleetDiesMidCampaign(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)
	key, _ := service.Key(req)
	cfg := CoordinatorConfig{LeaseTTL: time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0)
	dead := newRawWorker(t, url, "last-of-its-kind")
	exec := &fleetWorker{cfg: WorkerConfig{Workers: 1, Logger: quiet()}}
	plan, err := exec.plan(key, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Counts(context.Background(), 0, 0, 0, nil); err != nil { // build outside the lease window
		t.Fatal(err)
	}
	d := &progressLog{Coordinator: c}
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: d})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// The worker merges one shard, leases another, and dies holding it.
	task := dead.leaseOne(5 * time.Second)
	res := exec.execute(context.Background(), *task)
	if res.Error != "" {
		t.Fatalf("shard execution failed: %s", res.Error)
	}
	dead.report(t, res)
	k := task.Hi - task.Lo
	dead.leaseOne(5 * time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("campaign failed after the fleet died: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bytes differ from local:\n%s\n%s", got, want)
	}
	total := planUnits(t, req)
	d.mu.Lock()
	defer d.mu.Unlock()
	by := unitsByWorker(t, spansNamed(d.trace, "shard"))
	if by[inProcessWorker] != total-k || by[dead.id] != k {
		t.Errorf("units by worker %v, want %d from %s and %d in-process", by, k, dead.id, total-k)
	}
	last := [3]int{0, -1, 0}
	for _, r := range d.reports {
		if r[0] < last[0] || (r[0] == last[0] && r[1] < last[1]) {
			t.Errorf("progress went backwards: %v after %v", r, last)
		}
		last = r
	}
	var served int64
	for _, ts := range s.Stats().Tenants {
		served += ts.ServedUnits
	}
	if served != int64(total) {
		t.Errorf("served units %d, want %d", served, total)
	}
}

// TestCanceledRunNeverExecutesInProcess: a canceled campaign must not be
// resurrected by the in-process executor, even with no fleet to wait for.
func TestCanceledRunNeverExecutesInProcess(t *testing.T) {
	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: time.Second, Poll: 10 * time.Millisecond}, 0)
	req := tinyReq()
	key, _ := service.Key(req)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, tr := tracedCtx(ctx, key)
	if _, err := c.Run(ctx, key, req, func(int, int, int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if spans := spansNamed(tr, "shard"); len(spans) != 0 {
		t.Errorf("canceled run executed %d shards", len(spans))
	}
}

// TestShardErrorRetriesThenRunsInProcess: explicit shard errors are retried
// up to MaxAttempts; then the coordinator stops leasing the phase to the
// fleet and executes it itself, with the local path's bytes.
func TestShardErrorRetriesThenRunsInProcess(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	want := localBytes(t, req)
	cfg := CoordinatorConfig{LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 4, MaxAttempts: 2}
	c, url := fleet(t, cfg, 0)
	rw := newRawWorker(t, url, "saboteur")

	key, _ := service.Key(req)
	ctx, tr := tracedCtx(context.Background(), key)
	type runOut struct {
		data []byte
		err  error
	}
	out := make(chan runOut, 1)
	go func() {
		data, err := c.Run(ctx, key, req, func(int, int, int) {})
		out <- runOut{data, err}
	}()
	for i := 0; i < 2; i++ {
		task := rw.leaseOne(5 * time.Second)
		rw.report(t, ShardResult{Task: task.ID, Error: "synthetic shard failure"})
	}
	select {
	case r := <-out:
		if r.err != nil {
			t.Fatalf("run failed: %v", r.err)
		}
		if !bytes.Equal(r.data, want) {
			t.Errorf("bytes differ from local:\n%s\n%s", r.data, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("failing shards did not move in-process")
	}
	spans := spansNamed(tr, "shard")
	if len(spans) != 1 || spans[0].Attrs["worker"] != inProcessWorker || spans[0].Attrs["attempt"] != "3" {
		t.Errorf("shard spans %v, want one in-process merge on attempt 3", spans)
	}
}

// TestInvalidCountsRejected: counts outside [0, Samples] from a buggy or
// hostile worker are shard failures, never merged — the campaign still
// reduces to the local path's bytes.
func TestInvalidCountsRejected(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	want := localBytes(t, req)
	cfg := CoordinatorConfig{LeaseTTL: time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0)
	rw := newRawWorker(t, url, "forger")

	key, _ := service.Key(req)
	ctx, tr := tracedCtx(context.Background(), key)
	type runOut struct {
		data []byte
		err  error
	}
	out := make(chan runOut, 1)
	go func() {
		data, err := c.Run(ctx, key, req, func(int, int, int) {})
		out <- runOut{data, err}
	}()
	for _, bad := range []int{-1, req.Samples + 1} {
		task := rw.leaseOne(5 * time.Second)
		rw.report(t, ShardResult{Task: task.ID, Counts: []int{bad}})
	}
	// The forger goes silent; the coordinator executes what is left.
	select {
	case r := <-out:
		if r.err != nil {
			t.Fatalf("run failed: %v", r.err)
		}
		if !bytes.Equal(r.data, want) {
			t.Errorf("bytes differ from local:\n%s\n%s", r.data, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not complete after rejected counts")
	}
	if by := unitsByWorker(t, spansNamed(tr, "shard")); by[rw.id] != 0 {
		t.Errorf("units by worker %v: the forger's counts were merged", by)
	}
}

// TestWorkerRefusesKeyMismatch: the worker re-canonicalizes the spec and
// refuses a task whose advertised key disagrees — the coordinator sees an
// explicit shard error, not silent wrong-campaign counts.
func TestWorkerRefusesKeyMismatch(t *testing.T) {
	w := &fleetWorker{cfg: WorkerConfig{Logger: quiet()}}
	res := w.execute(context.Background(), ShardTask{
		ID:  "t1",
		Key: strings.Repeat("0", 64),
		Req: tinyReq(),
		Lo:  0, Hi: 1,
	})
	if res.Error == "" || !strings.Contains(res.Error, "key mismatch") {
		t.Fatalf("mismatched key produced %+v, want a key-mismatch error", res)
	}
	res = w.execute(context.Background(), ShardTask{ID: "t2", Key: "junk", Req: winofault.CampaignRequest{}})
	if res.Error == "" {
		t.Fatal("invalid spec did not error")
	}
}

// TestDrainRefusesRegistration: a draining coordinator turns away new
// fleet; existing workers keep leasing so in-flight campaigns finish.
func TestDrainRefusesRegistration(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Second, Logger: quiet()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	rw := newRawWorker(t, ts.URL, "early-bird")
	c.BeginDrain()

	body, _ := json.Marshal(registerRequest{Name: "latecomer"})
	resp, err := http.Post(ts.URL+"/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register while draining returned %d, want 503", resp.StatusCode)
	}
	// The registered worker still heartbeats and polls fine.
	hb, err := http.Post(ts.URL+"/workers/"+rw.id+"/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	hb.Body.Close()
	if hb.StatusCode != http.StatusNoContent {
		t.Errorf("heartbeat while draining returned %d, want 204", hb.StatusCode)
	}
	lease, err := http.Post(ts.URL+"/workers/"+rw.id+"/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	lease.Body.Close()
	if lease.StatusCode != http.StatusNoContent {
		t.Errorf("idle lease while draining returned %d, want 204", lease.StatusCode)
	}
}

// TestRunCanceled: canceling the campaign context unblocks Run promptly and
// strips its shards so late results are ignored.
func TestRunCanceled(t *testing.T) {
	req := tinyReq()
	req.Layers = false
	cfg := CoordinatorConfig{LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}
	c, url := fleet(t, cfg, 0)
	rw := newRawWorker(t, url, "bystander")

	key, _ := service.Key(req)
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, key, req, func(int, int, int) {})
		out <- err
	}()
	task := rw.leaseOne(5 * time.Second)
	cancel()
	select {
	case err := <-out:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return")
	}
	// A late result for the canceled run is dropped without fuss.
	body, _ := json.Marshal(ShardResult{Task: task.ID, Counts: []int{4}})
	resp, err := http.Post(url+"/workers/"+rw.id+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("late result returned %d, want 204", resp.StatusCode)
	}
}
