package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	winofault "repro"
	"repro/internal/blob"
	"repro/internal/obs"
)

// Config sizes the campaign service.
type Config struct {
	// Jobs is the number of campaigns executed concurrently (default 1;
	// each campaign already parallelizes internally via the faultsim pool).
	Jobs int
	// QueueDepth bounds the number of campaigns waiting to run (default
	// 16); submissions beyond it fail fast with ErrQueueFull instead of
	// accumulating unbounded work.
	QueueDepth int
	// Workers is the per-job faultsim worker budget (0 = GOMAXPROCS). A
	// request's own Workers value is honored only up to this budget.
	Workers int
	// CacheEntries caps the in-memory result cache (default 256).
	CacheEntries int
	// CacheDir, when non-empty, persists results on disk so cache contents
	// survive restarts.
	CacheDir string
	// Logger receives service events (default slog.Default(); tests use
	// slog.DiscardHandler).
	Logger *slog.Logger
	// TraceCap bounds how many campaign traces stay queryable via
	// /campaigns/{id}/trace (default obs.DefaultTraceCap). Memory is
	// O(campaigns retained), never O(rounds).
	TraceCap int
	// TraceDir, when non-empty, spills finished campaign traces to a bounded
	// on-disk blob store (at most traceStoreCap <key>.trace files):
	// /campaigns/{id}/trace then survives both ring eviction and process
	// restarts. Empty keeps traces memory-only, exactly as before.
	TraceDir string
	// Tenants, when set, turns on multi-tenancy: SubmitFor resolves API keys
	// against it (unknown keys get ErrUnauthorized) and the fair-share
	// scheduler apportions execution slots by tenant weight. nil leaves the
	// API open — every submission runs as the built-in default tenant.
	Tenants *TenantTable
	// Distributor, when set, executes cache-miss campaigns across a remote
	// worker fleet (see internal/dist). It owns every execution decision for
	// the campaigns it runs: internal/dist executes shards in-process whenever
	// no remote worker is live, with bit-identical bytes by the scheduler's
	// determinism guarantee.
	Distributor Distributor
}

// Distributor is the service's one seam to a worker fleet (internal/dist):
// it executes campaigns by sharding their flattened unit index space, hears
// when each campaign is over, and reports the fleet. Implementations must
// return bytes identical to the in-process run for the same request
// (internal/dist achieves this by merging per-unit agreement counts in index
// order) — the content-addressed cache stores whichever path ran first.
type Distributor interface {
	// Run executes the campaign. key is the campaign's content address
	// (already validated by Submit); workers re-derive it from req to verify
	// both sides agree on the campaign's identity.
	Run(ctx context.Context, key string, req winofault.CampaignRequest, progress func(batch, done, total int)) ([]byte, error)
	// CampaignDone reports that the campaign reached a terminal,
	// client-visible state, exactly once per run: for a success only after
	// the result is in the cache, so a crash between finishing and caching
	// still resumes the campaign from a durable registry.
	CampaignDone(key string)
	// Fleet reports every registered worker for GET /fleet and the wffleet_*
	// series on /metrics.
	Fleet() FleetStatus
}

// Sentinel errors surfaced by Submit and Distributor.Run.
var (
	ErrQueueFull = errors.New("service: job queue is full")
	ErrClosed    = errors.New("service: shutting down")
	// ErrQuotaExceeded reports that the submitting tenant is at its campaign
	// quota (HTTP 429); other tenants are unaffected.
	ErrQuotaExceeded = errors.New("service: tenant campaign quota exceeded")
	// ErrUnauthorized reports an unknown or missing API key on a service
	// running with a key table (HTTP 401).
	ErrUnauthorized = errors.New("service: invalid or missing API key")
)

// defaultTenant is the principal for open deployments and trusted in-process
// submissions (recovery resubmits, tests): weight 1, no quota.
var defaultTenant = &Tenant{Name: DefaultTenant, Weight: 1}

// maxFinished bounds how many finished jobs stay addressable for status
// polls; older ones age out (done results remain in the cache regardless).
const maxFinished = 256

// Service is the campaign server: a bounded queue of jobs in front of the
// deterministic faultsim engine, deduplicated by content-addressed cache
// and in-flight coalescing.
type Service struct {
	cfg   Config
	cache *Cache

	// trace retains recent campaign span trees for /campaigns/{id}/trace;
	// metrics is the fixed-bucket histogram set /metrics exposes. Both are
	// handed to runners through the job context (obs.With), never through
	// extra parameters. traces is the durable spill tier of TraceSnapshot
	// JSON (nil without Config.TraceDir — every use is nil-safe).
	trace   *obs.Recorder
	traces  *blob.Store
	metrics *obs.Metrics
	start   time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// draining flips when shutdown begins: submissions are refused and
	// /healthz reports "draining" so load balancers and fleet workers stop
	// routing here while in-flight work finishes.
	draining atomic.Bool
	// inflight counts campaigns currently executing on worker goroutines
	// (exported via /metrics).
	inflight atomic.Int64

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job // queued, running, and a bounded tail of finished
	finished []string        // FIFO of finished keys for eviction
	// sched is the fair-share dispatcher: per-tenant priority queues drained
	// by deficit round robin, globally bounded by QueueDepth. Its mutex nests
	// strictly inside s.mu.
	sched *scheduler
	wg    sync.WaitGroup

	// run executes one campaign under its content address; tests substitute
	// it to observe coalescing and cancellation without paying for real
	// forward passes. The progress callback tags each report with the plan's
	// phase index (0 = sweep, 1 = layer sensitivity) so phases with equal
	// unit totals stay distinct.
	run func(ctx context.Context, key string, req winofault.CampaignRequest, progress func(batch, done, total int)) ([]byte, error)
}

// New builds and starts a service; stop it with Close.
func New(cfg Config) (*Service, error) {
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	cache, err := NewCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	traces, err := blob.Open(cfg.TraceDir, ".trace", traceStoreCap)
	if err != nil {
		return nil, fmt.Errorf("service: trace dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		cache:      cache,
		trace:      obs.NewRecorder(cfg.TraceCap),
		traces:     traces,
		metrics:    obs.NewMetrics(),
		start:      time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		sched:      newScheduler(cfg.QueueDepth),
	}
	s.run = s.runCampaign
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit validates a campaign request and returns its job. Cache hits and
// coalesced submissions come back instantly: a cached key returns an
// already-done job, and a key currently queued or running returns that same
// in-flight job. Only genuinely new work consumes queue capacity.
//
// Submit is the trusted in-process path (tests, recovery resubmissions): it
// runs as the built-in default tenant with no quota. The HTTP layer goes
// through SubmitFor instead.
func (s *Service) Submit(req winofault.CampaignRequest) (*Job, error) {
	return s.submit(req, defaultTenant)
}

// SubmitFor is Submit on behalf of an API key. Authentication comes first —
// before even the cache probe, so an unauthenticated caller learns nothing
// about what the cache holds. Without a key table every key (including none)
// maps to the default tenant.
func (s *Service) SubmitFor(req winofault.CampaignRequest, apiKey string) (*Job, error) {
	t := defaultTenant
	if s.cfg.Tenants != nil {
		ten, ok := s.cfg.Tenants.Lookup(apiKey)
		if !ok {
			return nil, ErrUnauthorized
		}
		t = ten
	}
	return s.submit(req, t)
}

func (s *Service) submit(req winofault.CampaignRequest, t *Tenant) (*Job, error) {
	vStart := time.Now()
	key, err := Key(req)
	vDur := time.Since(vStart)
	if err != nil {
		return nil, err
	}
	// Content hit first: finished campaigns are always in the cache, so a
	// repeated request is answered from there (Cached=true) without
	// consuming queue capacity. This probe may touch disk, so it runs
	// before taking the service mutex.
	pStart := time.Now()
	data, hit := s.cache.Get(key)
	pDur := time.Since(pStart)
	s.metrics.CacheProbe.Observe(pDur.Seconds())
	if hit {
		s.traceCacheHit(key, vStart, vDur, pStart, pDur)
		return cachedJob(key, data), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining.Load() {
		return nil, ErrClosed
	}
	if j, ok := s.jobs[key]; ok {
		if st := j.Status(); st.State == winofault.StateQueued || st.State == winofault.StateRunning {
			// Coalesce onto the in-flight execution; the coalescing tenant
			// becomes a viewer so it can observe the job it now shares. The
			// waiters share the runner's trace — one execution, one timeline.
			j.addViewer(t.Name)
			return j, nil
		}
		// Finished jobs: done ones were served by the cache checks (unless
		// evicted with persistence off — then re-running is the only way to
		// answer); failed ones are retryable. Resubmit both.
	}
	// Re-check memory only (no I/O under the lock): the campaign may have
	// finished between the disk probe above and taking the mutex.
	if data, ok := s.cache.getMemory(key); ok {
		s.traceCacheHit(key, vStart, vDur, pStart, pDur)
		return cachedJob(key, data), nil
	}
	j := newJob(s.baseCtx, key, req, t.Name, clampPriority(req.Priority))
	// Begin the campaign's timeline: submit-time work recorded
	// retroactively, then an open queue-wait span that runJob closes when a
	// worker dequeues the job. The Obs handles ride the job context so the
	// distributor and local runner record into the same trace.
	tr := s.trace.Begin(key)
	tr.Record("validate", vStart, vDur)
	tr.Record("cache-probe", pStart, pDur, obs.A("hit", false))
	j.o = obs.Obs{Trace: tr, Metrics: s.metrics}
	j.ctx = obs.With(j.ctx, j.o)
	j.queueSpan = tr.Start("queue-wait", obs.A("tenant", t.Name), obs.A("priority", j.priority))
	j.enqueuedAt = time.Now()
	if err := s.sched.enqueue(j, t); err != nil {
		j.cancel() // release the job's context registration on baseCtx
		j.queueSpan.SetAttr("err", err.Error())
		j.queueSpan.End()
		tr.Finish()
		return nil, err
	}
	s.jobs[key] = j
	return j, nil
}

// traceCacheHit synthesizes a probe-only trace for a campaign answered
// straight from the cache — unless a real run already recorded a richer
// timeline for the key (in the ring, or spilled to disk by a previous
// incarnation), which a synthetic one must never overwrite or shadow.
func (s *Service) traceCacheHit(key string, vStart time.Time, vDur time.Duration, pStart time.Time, pDur time.Duration) {
	if s.trace.Lookup(key) != nil {
		return
	}
	if _, ok := s.traces.Get(key); ok {
		return
	}
	tr := s.trace.Begin(key)
	tr.Record("validate", vStart, vDur)
	tr.Record("cache-probe", pStart, pDur, obs.A("hit", true))
	tr.Finish()
}

// clampPriority folds a request's priority ask into the scheduler's range;
// like Workers, it is a scheduling hint, never part of campaign identity.
func clampPriority(p int) int {
	if p < 0 {
		return 0
	}
	if p > MaxPriority {
		return MaxPriority
	}
	return p
}

// Job returns the job addressed by id: in-flight or recently finished, else
// synthesized from the result cache. Any id reaching the cache's disk tier
// passes the blob store's content-address check first, which keeps path
// fragments smuggled through URL encoding off the filesystem.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		return j, true
	}
	if data, ok := s.cache.Get(id); ok {
		return cachedJob(id, data), true
	}
	return nil, false
}

// Cancel aborts an in-flight job. Identical submissions coalesce onto one
// execution, so cancellation is deliberately shared: the job IS the content
// address, and aborting it aborts it for every waiter — each sees
// context.Canceled. That is the price of the shared-cache model (one key,
// one execution); the failure is not sticky, so any waiter that still wants
// the result simply resubmits. Canceling an already-finished job is a
// no-op; the result (if done) stays cached.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok || j.cancel == nil {
		return false
	}
	j.cancel()
	return true
}

// rememberFinishedLocked keeps a finished job addressable for status polls,
// aging out the oldest entries beyond maxFinished.
func (s *Service) rememberFinishedLocked(j *Job) {
	s.jobs[j.Key] = j
	s.finished = append(s.finished, j.Key)
	for len(s.finished) > maxFinished {
		old := s.finished[0]
		s.finished = s.finished[1:]
		if held, ok := s.jobs[old]; ok && held != j {
			if st := held.Status(); st.State == winofault.StateDone || st.State == winofault.StateFailed {
				delete(s.jobs, old)
			}
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j := s.sched.next()
		if j == nil {
			return // closed and drained
		}
		s.runJob(j)
	}
}

func (s *Service) runJob(j *Job) {
	// The queue-wait span opened at submission ends here: the deficit attr is
	// the tenant's remaining DRR credit stamped at dequeue, so a starved
	// tenant's waits are attributable to fair-share arithmetic, not guessed.
	j.queueSpan.SetAttr("deficit", j.deficit)
	j.queueSpan.End()
	if !j.enqueuedAt.IsZero() {
		s.metrics.ObserveQueueWait(j.tenant, time.Since(j.enqueuedAt).Seconds())
	}
	j.setRunning()
	s.inflight.Add(1)
	execStart := time.Now()
	data, err := s.runGuarded(j)
	execDur := time.Since(execStart)
	s.inflight.Add(-1)
	if err == nil {
		if cerr := j.ctx.Err(); cerr != nil {
			// Belt and braces: a canceled campaign must never be cached,
			// even if the runner missed the cancellation.
			err = cerr
		} else if data == nil {
			err = fmt.Errorf("service: campaign produced no result")
		}
	}
	if err == nil {
		wStart := time.Now()
		perr := s.cache.Put(j.Key, data)
		j.o.Trace.Record("cache-write", wStart, time.Since(wStart), obs.A("bytes", len(data)))
		if perr != nil {
			// Persistence failures degrade durability, not the response.
			s.cfg.Logger.Error("service: cache persist failed", "campaign", ShortKey(j.Key), "err", perr)
		}
	}
	// Every outcome below is terminal and client-visible (a success is now
	// cached; failures and cancellations surface to waiters), so a durable
	// coordinator may retire the campaign from its journal.
	if d := s.cfg.Distributor; d != nil {
		d.CampaignDone(j.Key)
	}
	units := j.servedUnits()
	s.sched.done(j, units)
	if err == nil && execDur > 0 && units > 0 {
		s.metrics.Throughput.Observe(float64(units) / execDur.Seconds())
	}
	if !j.enqueuedAt.IsZero() {
		s.metrics.Campaign.ObserveSince(j.enqueuedAt)
	}
	j.o.Trace.Finish()
	s.persistTrace(j)
	s.mu.Lock()
	if err != nil {
		// The failed job stays addressable for status polls but is
		// retryable: Submit replaces it. Nothing touches the cache.
		s.cfg.Logger.Warn("service: campaign failed", "campaign", ShortKey(j.Key), "tenant", j.tenant, "err", err)
	}
	s.rememberFinishedLocked(j)
	s.mu.Unlock()
	j.finish(data, err)
}

// traceStoreCap bounds the on-disk trace store. Traces are O(spans) small,
// so this is megabytes, not gigabytes.
const traceStoreCap = 4096

// persistTrace spills a finished timeline to the durable trace store (a
// no-op without -trace-dir): after a restart the trace is served from disk,
// byte-identical — the snapshot round-trips JSON stably (sorted map keys,
// shortest floats, offset-preserving RFC3339 times).
func (s *Service) persistTrace(j *Job) {
	if s.traces == nil {
		return
	}
	data, err := json.Marshal(j.o.Trace.Snapshot())
	if err == nil {
		err = s.traces.Put(j.Key, data)
	}
	if err != nil {
		s.cfg.Logger.Error("service: trace persist failed", "campaign", ShortKey(j.Key), "err", err)
	}
}

// storedTrace loads a campaign's timeline from the durable trace store.
func (s *Service) storedTrace(key string) (obs.TraceSnapshot, bool) {
	var snap obs.TraceSnapshot
	data, ok := s.traces.Get(key)
	return snap, ok && json.Unmarshal(data, &snap) == nil
}

// ShortKey truncates a campaign content address for logs and span attrs,
// matching the %.12s prefix shard IDs embed.
func ShortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// runGuarded executes one campaign on the worker goroutine, converting a
// runner panic into a failed job: the service must outlive any single
// malformed request, so a panic fails that job alone instead of killing the
// process. Submit-time validation (Canonical) makes this a last line of
// defense, not the expected path.
func (s *Service) runGuarded(j *Job) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Logger.Error("service: campaign panicked",
				"campaign", ShortKey(j.Key), "panic", r, "stack", string(debug.Stack()))
			data, err = nil, fmt.Errorf("service: campaign panicked: %v", r)
		}
	}()
	return s.run(j.ctx, j.Key, j.req, j.progress)
}

// runCampaign executes one real campaign: through the Distributor when one is
// configured, otherwise in-process, each plan phase as a single unit range
// [0, n). Both paths drive the same campaign plan, so their bytes are
// identical.
func (s *Service) runCampaign(ctx context.Context, key string, req winofault.CampaignRequest, progress func(batch, done, total int)) ([]byte, error) {
	// The request's own worker ask is honored only up to the service's
	// per-job budget (the budget is the default) on either path: a
	// coordinator with no live fleet executes the campaign in-process too.
	req.Workers = clampWorkers(req.Workers, s.cfg.Workers)
	if d := s.cfg.Distributor; d != nil {
		return d.Run(ctx, key, req, progress)
	}
	plan, err := winofault.NewPlan(req)
	if err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	var res winofault.CampaignResult
	for i, phase := range plan.Phases() {
		ph := o.Trace.Start("phase",
			obs.A("phase", phase.Name), obs.A("path", "local"), obs.A("units", phase.Units))
		counts, err := plan.Counts(ctx, i, 0, phase.Units, func(done, total int) { progress(i, done, total) })
		if err == nil {
			err = plan.Reduce(&res, i, counts)
		}
		if err != nil {
			ph.SetAttr("err", err.Error())
			ph.End()
			return nil, err
		}
		ph.End()
	}
	return json.Marshal(res)
}

// clampWorkers resolves a request's worker ask against the service budget.
func clampWorkers(ask, budget int) int {
	if budget <= 0 {
		return ask // unlimited budget: the request's ask stands (0 = GOMAXPROCS)
	}
	if ask <= 0 || ask > budget {
		return budget
	}
	return ask
}

// BeginDrain flips the service into its terminating state without stopping
// work: subsequent submissions fail with ErrClosed, /healthz reports
// "draining" with a 503 (so load balancers and fleet workers stop routing
// here), and in-flight jobs keep running until Close. Calling it more than
// once is harmless.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether shutdown has begun (BeginDrain or Close).
func (s *Service) Draining() bool { return s.draining.Load() }

// Stats is the /metrics snapshot of the service.
type Stats struct {
	// QueueDepth is the number of campaigns waiting in the bounded queue.
	QueueDepth int
	// Inflight is the number of campaigns currently executing.
	Inflight int64
	// CacheHits / CacheMisses count content-addressed cache probes.
	CacheHits, CacheMisses int64
	// CacheEntries / CacheBytes gauge the in-memory cache tier (entry count
	// and resident result bytes), so operators can see LRU pressure rather
	// than only hit/miss flow.
	CacheEntries int
	CacheBytes   int64
	// Tenants is the per-tenant fair-share view: every tenant that has ever
	// submitted, with occupancy and admission counters.
	Tenants []TenantStat
}

// Stats snapshots the service counters for the /metrics endpoint.
func (s *Service) Stats() Stats {
	return Stats{
		QueueDepth:   s.sched.depthNow(),
		Inflight:     s.inflight.Load(),
		CacheHits:    s.cache.Hits(),
		CacheMisses:  s.cache.Misses(),
		CacheEntries: s.cache.Len(),
		CacheBytes:   s.cache.Bytes(),
		Tenants:      s.sched.stats(),
	}
}

// Close drains the service: no new submissions are accepted, queued and
// running jobs finish normally, then workers exit. If ctx is canceled while
// draining, every remaining job's context is canceled (their waiters see
// context.Canceled, nothing reaches the cache) and Close returns ctx.Err()
// once the workers have exited.
func (s *Service) Close(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.sched.close()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}
