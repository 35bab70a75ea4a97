package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// leaseAnswer is one lease request's outcome: its status, its task on a
// 200, and how long the coordinator took to answer.
type leaseAnswer struct {
	code int
	task *ShardTask
	took time.Duration
	err  error
}

// asyncLease posts one lease request for worker id and delivers its answer.
func asyncLease(base, id string) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	go func() {
		start := time.Now()
		resp, err := http.Post(base+"/workers/"+id+"/lease", "application/json", nil)
		a := leaseAnswer{took: time.Since(start), err: err}
		if err == nil {
			a.code = resp.StatusCode
			if a.code == http.StatusOK {
				a.task = new(ShardTask)
				a.err = json.NewDecoder(resp.Body).Decode(a.task)
			}
			resp.Body.Close()
		}
		out <- a
	}()
	return out
}

// waitFor blocks until cond holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitHeld blocks until some lease request is waiting for work.
func waitHeld(t *testing.T, c *Coordinator) {
	t.Helper()
	waitFor(t, "a lease request is held", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.wake != nil
	})
}

// TestHeldLeaseTakesQueuedShard: a lease request that found nothing is held
// and answered with a shard queued during the hold, long before Poll.
func TestHeldLeaseTakesQueuedShard(t *testing.T) {
	c, url := fleet(t, CoordinatorConfig{Poll: 5 * time.Second}, 0)
	w := newRawWorker(t, url, "held")
	ans := asyncLease(url, w.id)
	waitHeld(t, c)
	queued := time.Now()
	queueShard(c, "t1")
	a := <-ans
	if a.err != nil || a.code != http.StatusOK || a.task.ID != "t1" {
		t.Fatalf("held lease answered %d %+v (%v), want shard t1", a.code, a.task, a.err)
	}
	if d := time.Since(queued); d > time.Second {
		t.Errorf("held lease took %v after the shard was queued, want well under 1s", d)
	}
}

// TestRequeuedShardWakesHeldLease: a shard that goes back on the queue — its
// worker reported a failure, or its lease expired — reaches a held request
// at once, like a newly sharded one.
func TestRequeuedShardWakesHeldLease(t *testing.T) {
	for _, tc := range []struct {
		name    string
		requeue func(c *Coordinator, holder *rawWorker, task *ShardTask)
	}{
		{"failed", func(c *Coordinator, holder *rawWorker, task *ShardTask) {
			holder.report(holder.t, ShardResult{Task: task.ID, Error: "synthetic shard failure"})
		}},
		{"expired", func(c *Coordinator, holder *rawWorker, task *ShardTask) {
			c.expire(time.Now().Add(2 * c.cfg.LeaseTTL))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, url := fleet(t, CoordinatorConfig{LeaseTTL: time.Minute, Poll: 5 * time.Second}, 0)
			holder := newRawWorker(t, url, "holder")
			idle := newRawWorker(t, url, "idle")
			queueShard(c, "t1")
			task := holder.leaseOne(time.Second)
			ans := asyncLease(url, idle.id)
			waitHeld(t, c)
			start := time.Now()
			tc.requeue(c, holder, task)
			a := <-ans
			if a.err != nil || a.code != http.StatusOK || a.task.ID != "t1" {
				t.Fatalf("held lease answered %d %+v (%v), want re-queued shard t1", a.code, a.task, a.err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("re-queued shard reached the held lease after %v, want well under 1s", d)
			}
		})
	}
}

// TestIdleLeaseHeldForPoll: with nothing queued a lease request is answered
// 204 once Poll has passed, never at once.
func TestIdleLeaseHeldForPoll(t *testing.T) {
	_, url := fleet(t, CoordinatorConfig{Poll: 300 * time.Millisecond}, 0)
	w := newRawWorker(t, url, "idle")
	a := <-asyncLease(url, w.id)
	if a.err != nil || a.code != http.StatusNoContent {
		t.Fatalf("idle lease answered %d (%v), want 204", a.code, a.err)
	}
	if a.took < 250*time.Millisecond || a.took > 5*time.Second {
		t.Errorf("idle lease answered after %v, want about the 300ms Poll", a.took)
	}
}

// TestDrainAnswersHeldLeases: BeginDrain and Close each answer a held lease
// at once, and no later request is held.
func TestDrainAnswersHeldLeases(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Coordinator)
	}{
		{"BeginDrain", (*Coordinator).BeginDrain},
		{"Close", (*Coordinator).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, url := fleet(t, CoordinatorConfig{Poll: 10 * time.Second}, 0)
			w := newRawWorker(t, url, "held")
			ans := asyncLease(url, w.id)
			waitHeld(t, c)
			start := time.Now()
			tc.stop(c)
			if a := <-ans; a.err != nil || a.code != http.StatusNoContent {
				t.Fatalf("held lease answered %d (%v), want 204", a.code, a.err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s answered the held lease after %v, want at once", tc.name, d)
			}
			if a := <-asyncLease(url, w.id); a.err != nil || a.code != http.StatusNoContent || a.took > time.Second {
				t.Errorf("lease after %s answered %d after %v (%v), want 204 at once", tc.name, a.code, a.took, a.err)
			}
		})
	}
}

// TestServiceCloseReleasesHeldLeases: tearing a stack down the way wfbench
// and wfserve do (Service.Close, then http.Server.Shutdown) with two idle
// workers holding leases finishes at once, not after the 10s Poll: the
// service drains its distributor, which answers the held requests.
func TestServiceCloseReleasesHeldLeases(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{Poll: 10 * time.Second, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: c})
	if err != nil {
		t.Fatal(err)
	}
	// Count the lease requests the server is answering, so the teardown
	// starts once both idle workers have one open.
	var open atomic.Int64
	fleetAPI := c.Handler()
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/lease") {
			open.Add(1)
			defer open.Add(-1)
		}
		fleetAPI.ServeHTTP(w, r)
	})
	mux := http.NewServeMux()
	mux.Handle("/workers", counted)
	mux.Handle("/workers/", counted)
	mux.Handle("/", s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{Server: ln.Addr().String(), Name: name, Workers: 1, Logger: quiet()})
		}()
	}
	waitForWorkers(t, c, 2)
	waitFor(t, "both workers have a lease request open", func() bool { return open.Load() == 2 })

	start := time.Now()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Service.Close + Shutdown took %v with idle workers, want under 1s", d)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
}

// TestLayersCampaignWithLongPoll: a two-phase campaign through a two-worker
// fleet never waits out a Poll: every shard, the second phase's included,
// reaches a worker whose request is held. With a 5s Poll a lost wake-up
// would stretch the run past 5s.
func TestLayersCampaignWithLongPoll(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)
	c, _ := fleet(t, CoordinatorConfig{Poll: 5 * time.Second, ShardUnits: 1}, 2)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := c.Run(context.Background(), key, req, func(batch, done, total int) {})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed bytes differ from local:\n%s\n%s", got, want)
	}
	if took >= 5*time.Second {
		t.Errorf("two-phase campaign took %v with a 5s Poll, want under 5s", took)
	}
	for _, w := range c.Workers() {
		if w.Shards == 0 {
			t.Errorf("worker %s executed no shards", w.ID)
		}
	}
}

// TestWorkerIdleRequestRate: an idle worker sends about one lease request
// per Poll whether the coordinator answers 204 at once (it sleeps the whole
// interval, no busy loop) or holds each request for Poll (it asks again at
// once).
func TestWorkerIdleRequestRate(t *testing.T) {
	const poll = 100 * time.Millisecond
	instant := http.NewServeMux()
	instant.HandleFunc("POST /workers", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(registerResponse{ID: "w-1", LeaseMillis: time.Minute.Milliseconds(), PollMillis: poll.Milliseconds()})
	})
	instant.HandleFunc("POST /workers/{id}/{op}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	held, err := NewCoordinator(CoordinatorConfig{Poll: poll, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{
		{"instant", instant},
		{"held", held.Handler()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var leases atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/lease") {
					leases.Add(1)
				}
				tc.h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*poll)
			defer cancel()
			RunWorker(ctx, WorkerConfig{Server: ts.URL, Workers: 1, Logger: quiet()})
			if n := leases.Load(); n < 14 || n > 24 {
				t.Errorf("idle worker sent %d lease requests in 20 polls, want about 20", n)
			}
		})
	}
}

// TestHeldStragglerGetsNothing: a flagged straggler's held request is woken
// by a queued shard but still leaves it to the healthy worker, and answers
// 204 once Poll has passed.
func TestHeldStragglerGetsNothing(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Poll: 300 * time.Millisecond, Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fastID, slowID := twoWorkers(t, c, 50e-6, 10e-3)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	slow := asyncLease(ts.URL, slowID)
	waitHeld(t, c)
	queueShard(c, "t1")
	if a := <-asyncLease(ts.URL, fastID); a.err != nil || a.code != http.StatusOK || a.task.ID != "t1" {
		t.Fatalf("healthy worker answered %d %+v (%v), want shard t1", a.code, a.task, a.err)
	}
	if a := <-slow; a.err != nil || a.code != http.StatusNoContent || a.took < 250*time.Millisecond {
		t.Errorf("straggler answered %d after %v (%v), want 204 after the 300ms Poll", a.code, a.took, a.err)
	}
}
