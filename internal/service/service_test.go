package service

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	winofault "repro"
)

func quiet(cfg Config) Config {
	cfg.Logger = slog.New(slog.DiscardHandler)
	return cfg
}

// newStubService builds a service whose campaign runner is replaced by fn,
// so queue/coalescing/cancellation behavior is testable without forward
// passes.
func newStubService(t *testing.T, cfg Config, fn func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error)) *Service {
	t.Helper()
	s, err := New(quiet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	s.run = fn
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

func sweepReq(seed uint64) winofault.CampaignRequest {
	return winofault.CampaignRequest{Model: "vgg19", Seed: seed, BERs: []float64{1e-9, 1e-8}}
}

// TestCoalescingIdenticalSubmits: N concurrent submissions of the same
// campaign must execute it exactly once, and every waiter must observe that
// one result.
func TestCoalescingIdenticalSubmits(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	s := newStubService(t, Config{Jobs: 2, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		runs.Add(1)
		<-gate
		return []byte(`{"points":[]}`), nil
	})

	const submitters = 16
	results := make([][]byte, submitters)
	errs := make([]error, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(sweepReq(42))
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = j.Wait(context.Background())
		}(i)
	}
	// Let every submitter reach Wait before releasing the single execution.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("identical submissions ran %d times, want 1", got)
	}
	for i := 0; i < submitters; i++ {
		if errs[i] != nil {
			t.Errorf("submitter %d: %v", i, errs[i])
		} else if string(results[i]) != `{"points":[]}` {
			t.Errorf("submitter %d got %q", i, results[i])
		}
	}
}

// TestDistinctRequestsDoNotCoalesce: different campaign content must not
// share an execution.
func TestDistinctRequestsDoNotCoalesce(t *testing.T) {
	var runs atomic.Int64
	s := newStubService(t, Config{Jobs: 2, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		runs.Add(1)
		return []byte(`{}`), nil
	})
	for _, seed := range []uint64{1, 2, 3} {
		j, err := s.Submit(sweepReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("3 distinct campaigns ran %d times", got)
	}
}

// TestCacheHitSkipsExecution: a finished campaign is served from the cache
// with Cached=true and zero additional executions.
func TestCacheHitSkipsExecution(t *testing.T) {
	var runs atomic.Int64
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		runs.Add(1)
		return []byte(`{"points":[{"BER":1e-9,"Accuracy":0.5}]}`), nil
	})
	j1, err := s.Submit(sweepReq(7))
	if err != nil {
		t.Fatal(err)
	}
	data1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(sweepReq(7))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if !st.Cached || st.State != winofault.StateDone {
		t.Errorf("second submission not served from cache: %+v", st)
	}
	data2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(data1) != string(data2) {
		t.Errorf("cache served different bytes: %q vs %q", data1, data2)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("campaign executed %d times, want 1", got)
	}
}

// TestCancellationLeavesCacheClean: a campaign canceled mid-run must fail
// its waiters with the cancellation error and leave no trace in the memory
// cache or the persistence directory.
func TestCancellationLeavesCacheClean(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8, CacheDir: dir}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		if !first.CompareAndSwap(true, false) {
			return []byte(`{}`), nil // the resubmission at the end of the test
		}
		close(started)
		<-ctx.Done() // a cooperative campaign: stops scheduling units on cancel
		return nil, ctx.Err()
	})
	req := sweepReq(9)
	key, err := Key(req)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Cancel(j.Key) {
		t.Fatal("Cancel found no in-flight job")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Error("canceled campaign reached the memory cache")
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
		t.Errorf("canceled campaign reached the persistence dir: %v", err)
	}
	// The failure is not sticky: the same campaign can be resubmitted.
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2 == j {
		t.Error("failed job was returned instead of a fresh submission")
	}
}

// TestUncooperativeRunNeverCached: even if a runner ignores cancellation and
// returns a result, the service must refuse to cache or serve it.
func TestUncooperativeRunNeverCached(t *testing.T) {
	started := make(chan struct{})
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return []byte(`{"points":[]}`), nil // ignores the cancellation
	})
	req := sweepReq(10)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Cancel(j.Key)
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	key, _ := Key(req)
	if _, ok := s.cache.Get(key); ok {
		t.Error("result produced under cancellation was cached")
	}
}

// TestQueueBounded: submissions beyond queue capacity fail fast with
// ErrQueueFull instead of queueing unbounded work.
func TestQueueBounded(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 1}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		started <- struct{}{}
		<-gate
		return []byte(`{}`), nil
	})
	defer close(gate)
	if _, err := s.Submit(sweepReq(1)); err != nil { // runs
		t.Fatal(err)
	}
	<-started // the first job left the queue; the next fills the single slot
	if _, err := s.Submit(sweepReq(2)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(sweepReq(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission returned %v, want ErrQueueFull", err)
	}
	// Coalescing does not consume capacity: resubmitting queued content
	// succeeds even with a full queue.
	if _, err := s.Submit(sweepReq(2)); err != nil {
		t.Errorf("coalesced submission rejected: %v", err)
	}
}

// TestCloseDrainsInFlight: Close with a live context lets queued and
// running jobs finish and their results reach the cache.
func TestCloseDrainsInFlight(t *testing.T) {
	s, err := New(quiet(Config{Jobs: 1, QueueDepth: 8}))
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	s.run = func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		runs.Add(1)
		return []byte(`{}`), nil
	}
	var jobs []*Job
	for seed := uint64(1); seed <= 3; seed++ {
		j, err := s.Submit(sweepReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("drain completed %d jobs, want 3", got)
	}
	for i, j := range jobs {
		if st := j.Status(); st.State != winofault.StateDone {
			t.Errorf("job %d state %s after drain", i, st.State)
		}
	}
	if _, err := s.Submit(sweepReq(4)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submission returned %v, want ErrClosed", err)
	}
}

// TestCloseCancelsOnExpiredContext: when the drain budget is already spent,
// Close cancels in-flight jobs instead of blocking forever.
func TestCloseCancelsOnExpiredContext(t *testing.T) {
	started := make(chan struct{})
	s, err := New(quiet(Config{Jobs: 1, QueueDepth: 8}))
	if err != nil {
		t.Fatal(err)
	}
	s.run = func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := s.Submit(sweepReq(5))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Close(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close returned %v, want context.Canceled", err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("in-flight job resolved with %v, want context.Canceled", err)
	}
}

// TestRunnerPanicFailsJobNotProcess: a panic inside a campaign runner must
// resolve that job as failed and leave the service (and its worker
// goroutine) able to run subsequent campaigns — one malformed request must
// never take down the process.
func TestRunnerPanicFailsJobNotProcess(t *testing.T) {
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		if req.Seed == 666 {
			panic("need at least 2 classes and 1 image")
		}
		return []byte(`{}`), nil
	})
	j, err := s.Submit(sweepReq(666))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking campaign resolved with %v, want a panic error", err)
	}
	if st := j.Status(); st.State != winofault.StateFailed {
		t.Errorf("panicking campaign ended %s, want %s", st.State, winofault.StateFailed)
	}
	if _, ok := s.cache.Get(j.Key); ok {
		t.Error("panicking campaign reached the cache")
	}
	// The same worker goroutine survived and serves the next campaign.
	j2, err := s.Submit(sweepReq(667))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Errorf("campaign after a panic failed: %v", err)
	}
}

// TestProgressBatchSequencing: a new batch with the same unit total as the
// previous one must still publish its early reports — batch identity comes
// from the explicit sequence number, not from a changed total.
func TestProgressBatchSequencing(t *testing.T) {
	j := newJob(context.Background(), "k", sweepReq(1), DefaultTenant, 0)
	j.progress(0, 4, 4) // sweep batch finishes: 4/4
	j.progress(1, 1, 4) // layer batch with the SAME total reports early progress
	if st := j.Status(); st.Done != 1 || st.Total != 4 {
		t.Errorf("second batch progress suppressed: got %d/%d, want 1/4", st.Done, st.Total)
	}
	j.progress(0, 4, 4) // a straggler report from the finished sweep batch
	if st := j.Status(); st.Done != 1 {
		t.Errorf("stale batch report regressed progress to %d/%d", st.Done, st.Total)
	}
	j.progress(1, 3, 4)
	j.progress(1, 2, 4) // out-of-order within the batch: no regression
	if st := j.Status(); st.Done != 3 {
		t.Errorf("out-of-order report regressed progress to %d/%d", st.Done, st.Total)
	}
	j.finish(nil, errors.New("end"))
}

func TestClampWorkers(t *testing.T) {
	cases := []struct{ ask, budget, want int }{
		{0, 0, 0},  // both default: GOMAXPROCS
		{4, 0, 4},  // unlimited budget honors the ask
		{0, 2, 2},  // no ask: the budget
		{8, 2, 2},  // ask above budget: clamped
		{1, 2, 1},  // ask below budget: honored
		{-3, 2, 2}, // nonsense ask: the budget
	}
	for _, c := range cases {
		if got := clampWorkers(c.ask, c.budget); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.ask, c.budget, got, c.want)
		}
	}
}
