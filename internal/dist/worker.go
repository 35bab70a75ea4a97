package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"time"

	winofault "repro"
	"repro/internal/service"
)

// WorkerConfig configures one fleet node (cmd/wfworker).
type WorkerConfig struct {
	// Server is the coordinator's base URL (the wfserve address).
	Server string
	// Name labels this node in logs and /metrics (default: anonymous).
	Name string
	// Workers is the faultsim parallelism used per shard (0 = GOMAXPROCS).
	// Like everywhere else it changes wall-clock time, never counts.
	Workers int
	// APIKey authenticates against a coordinator running with -keys. Empty
	// is fine for an open (single-lab) coordinator.
	APIKey string
	// Logger receives worker events (default slog.Default()).
	Logger *slog.Logger
	// Metrics, when set, collects shard throughput/latency for the worker's
	// debug listener and is snapshotted into every heartbeat (metric
	// federation). nil records nothing and heartbeats stay bodyless.
	Metrics *WorkerMetrics
	// ExecDelay artificially stretches every shard execution by sleeping
	// inside the timed section. It exists for testing the coordinator's
	// straggler detection (CI starts one deliberately slow node); production
	// workers leave it zero. Determinism is untouched — the delay changes
	// wall-clock time, never counts.
	ExecDelay time.Duration
}

// RunWorker joins the fleet at cfg.Server and processes shard leases until
// ctx is canceled: register, heartbeat, lease-execute-report. Connection
// errors, coordinator restarts and drains are survived by backing off and
// re-registering — the worker is stateless between shards except for a
// small LRU of built systems keyed by campaign content address, and the
// working state of those whose campaigns may still send it shards.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	base := cfg.Server
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("dist: worker server %q: %w", cfg.Server, err)
	}
	w := &fleetWorker{cfg: cfg, base: u, hc: loopClient(), hbc: loopClient()}
	defer w.hc.CloseIdleConnections()
	defer w.hbc.CloseIdleConnections()
	for {
		if err := w.session(ctx); err != nil {
			return err
		}
		// session only returns without error to re-register (lapsed
		// registration or coordinator restart); pause briefly first.
		if !sleepCtx(ctx, w.backoff()) {
			return ctx.Err()
		}
	}
}

// fleetWorker is the state of one RunWorker loop.
type fleetWorker struct {
	cfg  WorkerConfig
	base *url.URL
	hc   *http.Client // register, lease and result requests
	hbc  *http.Client // heartbeats

	id    string
	lease time.Duration // coordinator's lease TTL
	poll  time.Duration // least time between two idle lease requests
	fails int           // consecutive connection/5xx failures, for backoff

	// Campaign plans (and the systems under them) cached by campaign content
	// address, least recently used first: a campaign's shards arrive back to
	// back (often both phases), and rebuilding the network per shard would
	// dwarf small unit ranges. A few slots (not one) so the interleaved shard
	// streams of a multi-job coordinator don't thrash it. Touched only by the
	// single lease/execute goroutine.
	//
	// A plan keeps its working state (warm contexts, the golden plane, the
	// reference rounds its layers phase captured) while more of its shards
	// may come here, and no longer. The coordinator queues a campaign's
	// shards, every phase's, at once and leases them in queue order, so
	// once the worker takes a shard of another campaign, no shard of the
	// campaign it left is still queued, short of a re-leased one. Leaving a
	// plan in its last phase therefore releases it; a plan left in an
	// earlier phase (other workers took the rest of the campaign) keeps its
	// state until it leaves the cache. An idle lease answer releases every
	// plan.
	plans []cachedPlan
}

type cachedPlan struct {
	key  string
	plan *winofault.Plan
	// phase is the phase of the worker's last shard of the plan, or -1 once
	// the plan's working state is released.
	phase int
}

// planCacheSize bounds cached plans per worker; coordinators run few
// campaigns concurrently (wfserve -jobs, default 1), so a handful covers
// realistic interleavings.
const planCacheSize = 4

// backoff grows with consecutive failures, capped at 2s.
func (w *fleetWorker) backoff() time.Duration {
	d := 100 * time.Millisecond << min(w.fails, 4)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// loopClient returns the HTTP client of one of the worker's request loops:
// leases and results, or heartbeats. A loop sends one request at a time, so
// its client keeps one connection. The cap also stops the transport from
// dialing a spare connection when a request races the previous one's return
// to the idle pool: the spare would sit open without a request, and
// http.Server.Shutdown waits up to 5s for such a connection.
func loopClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = 1
	return &http.Client{Transport: t}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (w *fleetWorker) endpoint(path string) string {
	u := *w.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	return u.String()
}

// postJSON posts body (or nothing) through hc and decodes a JSON reply into
// out when non-nil. It returns the HTTP status; transport errors return 0.
func (w *fleetWorker) postJSON(ctx context.Context, hc *http.Client, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint(path), rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.APIKey)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// session is one registration's lifetime: register, then lease/execute until
// ctx ends (error) or the registration lapses (nil — caller re-registers).
func (w *fleetWorker) session(ctx context.Context) error {
	var resp registerResponse
	for {
		code, err := w.postJSON(ctx, w.hc, "/workers", registerRequest{Name: w.cfg.Name}, &resp)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil && code == http.StatusOK && resp.ID != "" {
			break
		}
		w.fails++
		w.cfg.Logger.Warn("dist: worker register failed; retrying",
			"name", w.cfg.Name, "server", w.base.String(), "status", code, "err", err)
		if !sleepCtx(ctx, w.backoff()) {
			return ctx.Err()
		}
	}
	w.fails = 0
	w.id = resp.ID
	w.lease = time.Duration(resp.LeaseMillis) * time.Millisecond
	if w.lease <= 0 {
		w.lease = DefaultLeaseTTL
	}
	w.poll = time.Duration(resp.PollMillis) * time.Millisecond
	if w.poll <= 0 {
		w.poll = DefaultPoll
	}
	w.cfg.Logger.Info("dist: worker registered",
		"name", w.cfg.Name, "worker", w.id, "lease", w.lease, "poll", w.poll)
	return w.leaseLoop(ctx)
}

func (w *fleetWorker) leaseLoop(ctx context.Context) error {
	hbStop := make(chan struct{})
	defer close(hbStop)
	go w.heartbeatLoop(ctx, hbStop)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var task ShardTask
		asked := time.Now()
		code, err := w.postJSON(ctx, w.hc, "/workers/"+w.id+"/lease", nil, &task)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil || code >= 500 || code == 0:
			w.fails++
			if !sleepCtx(ctx, w.backoff()) {
				return ctx.Err()
			}
		case code == http.StatusNotFound:
			w.cfg.Logger.Info("dist: worker registration lapsed; re-registering", "worker", w.id)
			return nil
		case code == http.StatusNoContent:
			// The coordinator held the request while nothing was queued;
			// sleep only the rest of the poll interval, so an idle worker
			// asks about once per poll whether or not its requests are held.
			w.fails = 0
			for i := range w.plans {
				w.plans[i].release() // nothing is queued: keep no state while idle
			}
			if !sleepCtx(ctx, w.poll-time.Since(asked)) {
				return ctx.Err()
			}
		case code == http.StatusOK:
			w.fails = 0
			// Time the execution here (around system reuse and unit compute,
			// not transport) and ship the duration back in the result: the
			// coordinator stitches it into the campaign trace without the two
			// clocks ever having to agree on absolute time.
			w.cfg.Metrics.shardStarted()
			execStart := time.Now()
			res := w.execute(ctx, task)
			if w.cfg.ExecDelay > 0 {
				// Inside the timed section on purpose: the delay must show up
				// in ExecNanos and the exec histogram, exactly like a genuinely
				// slow node's extra wall time would.
				sleepCtx(ctx, w.cfg.ExecDelay)
			}
			exec := time.Since(execStart)
			res.ExecNanos = exec.Nanoseconds()
			w.cfg.Metrics.observeShard(exec)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.report(ctx, res)
		default:
			w.fails++
			if !sleepCtx(ctx, w.backoff()) {
				return ctx.Err()
			}
		}
	}
}

func (w *fleetWorker) heartbeatLoop(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(w.lease / 3)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			// The heartbeat doubles as the federation channel: it carries the
			// node's metric snapshot so the coordinator can expose per-worker
			// series without ever dialing workers. A nil Metrics keeps the
			// body empty (the coordinator tolerates both).
			var body any
			if snap := w.cfg.Metrics.Snapshot(); snap != nil {
				body = heartbeatRequest{Metrics: snap}
			}
			w.postJSON(ctx, w.hbc, "/workers/"+w.id+"/heartbeat", body, nil)
		}
	}
}

// report delivers a shard result, retrying briefly: losing a computed shard
// to a transient network blip would force a pointless re-execution.
func (w *fleetWorker) report(ctx context.Context, res ShardResult) {
	for attempt := 0; attempt < 4; attempt++ {
		code, err := w.postJSON(ctx, w.hc, "/workers/"+w.id+"/result", res, nil)
		if err == nil && code < 500 && code != 0 {
			return
		}
		if !sleepCtx(ctx, w.backoff()) {
			return
		}
	}
	w.cfg.Logger.Warn("dist: dropping shard result (coordinator unreachable); it will be re-leased",
		"worker", w.id, "shard", res.Task)
}

// execute runs one shard: re-canonicalize the campaign spec, rebuild (or
// reuse) its plan, compute the unit range's agreement counts.
func (w *fleetWorker) execute(ctx context.Context, task ShardTask) ShardResult {
	res := ShardResult{Task: task.ID}
	// Re-canonicalization is the trust boundary: the worker derives the
	// content address itself (with the shared service validation) and
	// refuses to compute under a key it does not agree describes the spec.
	key, err := service.Key(task.Req)
	if err != nil {
		res.Error = fmt.Sprintf("invalid campaign spec: %v", err)
		return res
	}
	if key != task.Key {
		res.Error = fmt.Sprintf("campaign key mismatch: coordinator says %.12s, spec canonicalizes to %.12s", task.Key, key)
		return res
	}
	plan, err := w.plan(key, task.Req, task.Phase)
	if err == nil {
		res.Counts, err = plan.Counts(ctx, task.Phase, task.Lo, task.Hi, nil)
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

// plan returns the cached plan for key, or a new one (evicting the least
// recently used entry beyond planCacheSize), for a shard of phase; a new
// plan's first Counts builds its executor. If the worker's previous shard
// was of another plan, it leaves that plan first, so a release lands before
// the build's golden pass.
func (w *fleetWorker) plan(key string, req winofault.CampaignRequest, phase int) (*winofault.Plan, error) {
	if n := len(w.plans); n > 0 && w.plans[n-1].key != key {
		w.plans[n-1].leave()
	}
	for i, e := range w.plans {
		if e.key == key {
			e.phase = phase
			w.plans = append(append(w.plans[:i:i], w.plans[i+1:]...), e)
			return e.plan, nil
		}
	}
	req.Workers = w.cfg.Workers // scheduling only; never part of the key
	p, err := winofault.NewPlan(req)
	if err != nil {
		return nil, err
	}
	w.plans = append(w.plans, cachedPlan{key: key, plan: p, phase: phase})
	if len(w.plans) > planCacheSize {
		w.plans = w.plans[1:]
	}
	return p, nil
}

// leave releases e's working state if the worker's last shard of it was in
// its last phase: no more of its shards will come (see fleetWorker.plans).
func (e *cachedPlan) leave() {
	if e.phase == len(e.plan.Phases())-1 {
		e.release()
	}
}

// release frees e's working state.
func (e *cachedPlan) release() {
	e.plan.Release()
	e.phase = -1
}
