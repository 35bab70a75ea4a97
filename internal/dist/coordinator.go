package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	winofault "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

// CoordinatorConfig sizes the shard dispatcher.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker may stay silent before its registration
	// lapses and its leased shards are re-queued (default 15s). Workers
	// heartbeat at a third of this.
	LeaseTTL time.Duration
	// Poll is the idle polling interval hinted to workers (default 500ms).
	Poll time.Duration
	// ShardUnits fixes the target units per shard. 0 (default) sizes shards
	// so each live worker gets about two — small enough for load balancing
	// and cheap re-leases, large enough to amortize per-shard system
	// construction on the worker.
	ShardUnits int
	// MaxAttempts bounds explicit shard failures (a worker reporting an
	// error or invalid counts) before the coordinator stops leasing the
	// shard's phase to the fleet and executes its pending shards in-process
	// (default 3). Lease expiries do not count: a dead worker is the fleet's
	// fault, not the shard's.
	MaxAttempts int
	// JournalPath, when non-empty, makes the control plane durable: the
	// campaign registry and every merged shard are appended to this file, and
	// a restarted coordinator resumes unfinished campaigns from it (see
	// journal.go). Empty means in-memory only — a crash fails in-flight
	// campaigns exactly as before.
	JournalPath string
	// JournalBudget is the record count past which the journal is compacted
	// to a snapshot of live state (default 4096).
	JournalBudget int
	// StragglerFactor flags a worker as a straggler once its per-unit shard
	// execution EWMA exceeds this multiple of the fleet's median (default 3;
	// requires at least two live measured workers). Flagged workers stop
	// receiving leases while a healthy worker is live, so one slow node
	// stretches at most the shards it already holds, not the campaign tail.
	StragglerFactor float64
	// StragglerProbation is how long a flagged worker goes lease-less before
	// it is granted one probe shard to re-measure itself (default 10×
	// LeaseTTL). Without probation a node that was slow once — a transient
	// noisy neighbor — would be benched forever.
	StragglerProbation time.Duration
	// Auth, when set, gates every worker-facing endpoint: a request whose
	// API key it rejects gets a 401 instead of joining the fleet. nil leaves
	// the fleet API open (single-lab mode).
	Auth func(apiKey string) bool
	// Logger receives coordinator events (default slog.Default()).
	Logger *slog.Logger
}

// Coordinator is the fleet side of distributed campaign execution: worker
// registry (register / heartbeat / lease expiry), shard queue, an in-process
// executor for when the fleet cannot take the work, and the index-ordered
// merge that keeps distributed results byte-identical to local ones. It
// implements service.Distributor.
type Coordinator struct {
	cfg CoordinatorConfig
	// epoch namespaces shard IDs across restarts: a worker that computed a
	// shard while the coordinator was down must never have its stale result
	// merged into a same-numbered shard of the new incarnation.
	epoch string
	// jrnl is nil without a JournalPath; all appends happen under mu.
	jrnl *journal

	mu       sync.Mutex
	draining bool
	workers  map[string]*workerState
	pending  []*shard          // dispatchable shards, FIFO
	leased   map[string]*shard // task ID -> leased shard
	// registry tracks journaled campaigns between Run and CampaignDone: the
	// request (for recovery resubmission) and the merged unit ranges per
	// phase (for resume pre-fill and compaction snapshots). Maintained even
	// without a journal so the code has one shape.
	registry map[string]*campaignState
	nextID   uint64
	stop     chan struct{}
	stopOnce sync.Once
}

// workerState is one registered fleet node.
type workerState struct {
	id, name string
	lastSeen time.Time
	shards   int64 // completed shard results (metrics)
	// snap is the node's last heartbeat metric snapshot (metric federation);
	// nil until an instrumented worker heartbeats.
	snap *MetricsSnapshot
	// unitEWMA tracks exec seconds per unit over this worker's merged shards
	// (exponentially weighted, stragglerAlpha); samples counts contributions.
	unitEWMA float64
	samples  int
	// straggler marks a worker slower than StragglerFactor× the fleet median;
	// flaggedAt feeds the probation clock.
	straggler bool
	flaggedAt time.Time
}

// stragglerAlpha weights the newest per-unit execution sample in the EWMA.
// 0.3 adapts within a few shards without letting one noisy shard flip flags.
const stragglerAlpha = 0.3

// stragglerMinGap is an absolute per-unit floor (seconds) a worker's EWMA
// must exceed the median by before flagging: when the whole fleet executes
// units in microseconds, ratios alone are dominated by scheduling noise.
const stragglerMinGap = 100e-6

// shard is one dispatchable unit range of a running campaign phase.
type shard struct {
	task     ShardTask
	run      *campaignRun
	attempts int       // explicit failures reported by workers
	worker   string    // current lease holder ("" while pending)
	deadline time.Time // lease expiry when leased
	leaseAt  time.Time // when the current (or last) lease was granted
}

// campaignRun collects one phase's shard results.
type campaignRun struct {
	plan      *winofault.Plan
	counts    []int
	remaining int // shards not yet merged
	doneUnits int
	total     int
	finished  bool
	err       error
	done      chan struct{}
	// local marks a phase one of whose shards exhausted MaxAttempts: the
	// in-process executor takes all its pending shards, live fleet or not,
	// and remote workers are no longer leased them.
	local bool
	// progress observes phase progress. Remote merges and in-process units
	// report concurrently, so pmu serializes the calls and reported keeps
	// them monotonic; -1 until the starting point is published.
	progress func(done, total int)
	pmu      sync.Mutex
	reported int
	// o and span carry the campaign's observability handles into result(),
	// which runs on handler goroutines: merged shards become child spans of
	// the phase span and worker exec times feed the ShardExec histogram.
	o    obs.Obs
	span *obs.Span
}

// NewCoordinator builds a coordinator and starts its lease janitor; stop it
// with Close. With a JournalPath it replays the journal first, so Recovered
// reports the campaigns a previous incarnation left unfinished.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.JournalBudget < 1 {
		cfg.JournalBudget = 4096
	}
	if cfg.StragglerFactor <= 1 {
		cfg.StragglerFactor = 3
	}
	if cfg.StragglerProbation <= 0 {
		cfg.StragglerProbation = 10 * cfg.LeaseTTL
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Coordinator{
		cfg:      cfg,
		epoch:    strconv.FormatInt(time.Now().UnixNano(), 36),
		workers:  map[string]*workerState{},
		leased:   map[string]*shard{},
		registry: map[string]*campaignState{},
		stop:     make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		jrnl, registry, err := openJournal(cfg.JournalPath, cfg.JournalBudget, cfg.Logger)
		if err != nil {
			return nil, err
		}
		c.jrnl = jrnl
		c.registry = registry
		for _, cs := range registry {
			cs.recovered = true
		}
		if len(registry) > 0 {
			cfg.Logger.Info("dist: journal replayed: unfinished campaigns recovered",
				"journal", cfg.JournalPath, "campaigns", len(registry))
		}
	}
	go c.janitor()
	return c, nil
}

// Close stops the lease janitor and releases the journal handle. In-flight
// Run calls are not interrupted (their contexts are); Close exists so tests
// and shutdown leak nothing.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.jrnl.close()
	})
}

// Recovered is one journaled campaign a previous coordinator incarnation
// left unfinished, to be resubmitted by the server at startup.
type Recovered struct {
	Key string
	Req winofault.CampaignRequest
}

// Recovered lists the campaigns replayed from the journal, in key order.
// The server resubmits each one; the coordinator then resumes its phases
// from the journaled shard merges instead of starting over.
func (c *Coordinator) Recovered() []Recovered {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Recovered, 0, len(c.registry))
	for key, cs := range c.registry {
		out = append(out, Recovered{Key: key, Req: cs.req})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// CampaignDone retires a campaign from the registry and journal: its result
// reached the content-addressed cache, or it ended in a client-visible
// failure or cancellation. The service calls this for successes only after
// the cache write, so a crash between finishing and caching still resumes —
// recovery then re-runs nothing the cache already holds.
func (c *Coordinator) CampaignDone(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.registry[key]; !ok {
		return
	}
	delete(c.registry, key)
	c.jrnl.append(journalRecord{T: recDone, Key: key})
	c.compactIfNeededLocked()
}

// compactIfNeededLocked kicks off a journal snapshot once the file grows past
// the record budget. Called with c.mu held, so the snapshot captures a
// registry consistent with the journal's record set; the rewrite+fsync itself
// runs in a goroutine so lease/result/heartbeat traffic waiting on c.mu never
// stalls behind journal I/O. The snapshot shares the registry's counts slices,
// which is safe because merged ranges are never mutated after insertion.
func (c *Coordinator) compactIfNeededLocked() {
	if c.jrnl.beginCompaction() {
		recs := snapshotRecords(c.registry)
		go c.jrnl.finishCompaction(recs)
	}
}

// BeginDrain stops accepting new worker registrations. Existing workers
// keep leasing and reporting so in-flight campaigns finish inside the drain
// budget; new fleet members should register with a coordinator that will
// outlive them.
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Workers lists the fleet's rows, sorted by worker ID: Fleet().Workers.
func (c *Coordinator) Workers() []service.FleetWorker { return c.Fleet().Workers }

func (c *Coordinator) liveLocked(w *workerState, now time.Time) bool {
	return now.Sub(w.lastSeen) <= c.cfg.LeaseTTL
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if c.liveLocked(w, now) {
			n++
		}
	}
	return n
}

// healthyLiveLocked reports whether a live, un-flagged worker other than w
// exists — the condition under which benching w costs the fleet nothing.
func (c *Coordinator) healthyLiveLocked(w *workerState, now time.Time) bool {
	for _, other := range c.workers {
		if other != w && !other.straggler && c.liveLocked(other, now) {
			return true
		}
	}
	return false
}

// fleetMedianLocked is the lower median of live, measured workers' per-unit
// exec EWMAs (0 with nothing measured). Lower median on purpose: with two
// workers it is the faster one, so a two-node fleet can still flag its slow
// half instead of comparing the straggler against itself.
func (c *Coordinator) fleetMedianLocked(now time.Time) (float64, int) {
	ewmas := make([]float64, 0, len(c.workers))
	for _, w := range c.workers {
		if w.samples > 0 && c.liveLocked(w, now) {
			ewmas = append(ewmas, w.unitEWMA)
		}
	}
	if len(ewmas) == 0 {
		return 0, 0
	}
	sort.Float64s(ewmas)
	return ewmas[(len(ewmas)-1)/2], len(ewmas)
}

// recomputeStragglersLocked re-evaluates every measured worker against the
// fleet median. Fewer than two live measured workers clears all flags: a
// lone worker has no fleet to be slower than.
func (c *Coordinator) recomputeStragglersLocked(now time.Time) {
	median, measured := c.fleetMedianLocked(now)
	for _, w := range c.workers {
		if w.samples == 0 {
			continue
		}
		flag := measured >= 2 &&
			w.unitEWMA > c.cfg.StragglerFactor*median &&
			w.unitEWMA > median+stragglerMinGap
		if flag && !w.straggler {
			w.flaggedAt = now
			c.cfg.Logger.Warn("dist: worker flagged as straggler; deprioritizing leases",
				"worker", w.id, "name", w.name,
				"unitSeconds", w.unitEWMA, "fleetMedian", median, "factor", c.cfg.StragglerFactor)
		} else if !flag && w.straggler {
			c.cfg.Logger.Info("dist: worker recovered from straggler flag",
				"worker", w.id, "name", w.name, "unitSeconds", w.unitEWMA, "fleetMedian", median)
		}
		w.straggler = flag
	}
}

// Fleet reports the federated per-worker view for GET /fleet and the
// wffleet_* series on /metrics (service.Distributor): coordinator-side
// liveness, shard counts and straggler flags joined with each node's last
// heartbeat snapshot.
func (c *Coordinator) Fleet() service.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	median, _ := c.fleetMedianLocked(now)
	fs := service.FleetStatus{
		Epoch:             c.epoch,
		StragglerFactor:   c.cfg.StragglerFactor,
		MedianUnitSeconds: median,
		Workers:           make([]service.FleetWorker, 0, len(c.workers)),
	}
	for _, w := range c.workers {
		fw := service.FleetWorker{
			ID:            w.id,
			Name:          w.name,
			Epoch:         c.epoch,
			Live:          c.liveLocked(w, now),
			Straggler:     w.straggler,
			Shards:        w.shards,
			LastHeartbeat: now.Sub(w.lastSeen).Seconds(),
			UnitSeconds:   w.unitEWMA,
		}
		if w.snap != nil {
			fw.Inflight = w.snap.Inflight
			fw.Goroutines = w.snap.Goroutines
			fw.HeapBytes = w.snap.HeapBytes
			fw.Exec = w.snap.Exec
			fw.P50 = fw.Exec.Quantile(0.50)
			fw.P99 = fw.Exec.Quantile(0.99)
		}
		fs.Workers = append(fs.Workers, fw)
	}
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].ID < fs.Workers[j].ID })
	return fs
}

// Run executes one campaign (service.Distributor): for each phase of the
// campaign's plan, shard its unit space, let the fleet lease the shards —
// or, while no remote worker is live, execute them in-process — merge the
// counts, and reduce. The returned bytes are byte-identical to the service's
// in-process run of the same request: the marshaled result of the same
// index-ordered integer reduction.
func (c *Coordinator) Run(ctx context.Context, key string, req winofault.CampaignRequest, progress func(batch, done, total int)) ([]byte, error) {
	o := obs.From(ctx)
	c.mu.Lock()
	// Durability begins here: register the campaign before any execution,
	// so a crash at any point resumes it at the next startup.
	if _, ok := c.registry[key]; !ok {
		reqCopy := req
		// The record carries this incarnation's epoch so a recovered
		// campaign's trace can link the prior incarnation's trace (shard
		// span epochs) across the restart.
		c.registry[key] = &campaignState{req: reqCopy, phases: map[int][]shardRange{}, epoch: c.epoch}
		c.jrnl.append(journalRecord{T: recCampaign, Key: key, Req: &reqCopy, Epoch: c.epoch})
		c.compactIfNeededLocked()
	}
	c.mu.Unlock()

	// The coordinator's own plan gives the unit totals, validates merged
	// counts, reduces them, and executes shards whenever the fleet can't.
	plan, err := winofault.NewPlan(req)
	if err != nil {
		return nil, err
	}
	var res winofault.CampaignResult
	for i, phase := range plan.Phases() {
		ph := o.Trace.Start("phase", obs.A("phase", phase.Name), obs.A("path", "dist"))
		counts, err := c.runPhase(ctx, o, ph, key, req, plan, i, phase.Units, func(done, total int) { progress(i, done, total) })
		if err == nil {
			mStart := time.Now()
			err = plan.Reduce(&res, i, counts)
			ph.Record("merge", mStart, time.Since(mStart))
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

// runPhase shards one phase's unit index space [0, total) into contiguous
// ranges, dispatches them, and blocks until every shard's counts are merged
// (in index order, by construction of the counts slice) or the phase fails.
func (c *Coordinator) runPhase(ctx context.Context, o obs.Obs, ph *obs.Span, key string, req winofault.CampaignRequest, plan *winofault.Plan, phase, total int, progress func(done, total int)) ([]int, error) {
	ph.SetAttr("units", total)
	run := &campaignRun{
		plan:     plan,
		counts:   make([]int, total),
		total:    total,
		done:     make(chan struct{}),
		progress: progress,
		reported: -1,
		o:        o,
		span:     ph,
	}
	if total == 0 {
		return run.counts, nil // e.g. every BER <= 0: nothing to sample
	}

	recStart := time.Now()
	c.mu.Lock()
	// Resume: pre-fill unit ranges a previous incarnation already merged and
	// journaled. Counts are deterministic, so a pre-filled range holds
	// exactly the integers a re-execution would produce — recovery changes
	// wall-clock time, never bytes. Only the uncovered gaps are sharded.
	covered := make([]bool, total)
	prefilled := 0
	prevEpoch := ""
	if cs := c.registry[key]; cs != nil {
		if cs.recovered && cs.epoch != "" && cs.epoch != c.epoch {
			prevEpoch = cs.epoch
		}
		kept := cs.phases[phase][:0]
		for _, r := range cs.phases[phase] {
			if err := plan.CheckCounts(phase, r.lo, r.hi, r.counts); err != nil {
				c.cfg.Logger.Warn("dist: dropping invalid journaled range",
					"campaign", service.ShortKey(key), "phase", phase, "lo", r.lo, "hi", r.hi, "units", total, "err", err)
				continue
			}
			kept = append(kept, r)
			for i := r.lo; i < r.hi; i++ {
				if !covered[i] {
					covered[i] = true
					run.counts[i] = r.counts[i-r.lo]
					prefilled++
				}
			}
		}
		cs.phases[phase] = kept
	}
	run.doneUnits = prefilled
	if prefilled == total {
		// The whole phase was merged before the crash: nothing to execute.
		c.mu.Unlock()
		ph.Record("journal-recovery", recStart, time.Since(recStart),
			recoveryAttrs(prefilled, c.epoch, prevEpoch)...)
		c.cfg.Logger.Info("dist: all units recovered from journal",
			"campaign", service.ShortKey(key), "phase", phase, "units", total)
		return run.counts, nil
	}
	live := c.liveWorkersLocked(time.Now())
	size := c.cfg.ShardUnits
	if size <= 0 {
		// About two shards per live worker: re-leases stay cheap and a slow
		// node can't serialize the tail. With no live worker the coordinator
		// executes the phase itself, so each remaining gap is one range.
		size = total
		if live > 0 {
			size = (total - prefilled + 2*live - 1) / (2 * live)
		}
	}
	if size < 1 {
		size = 1
	}
	shards := 0
	for lo := 0; lo < total; {
		if covered[lo] {
			lo++
			continue
		}
		hi := lo
		for hi < total && !covered[hi] && hi-lo < size {
			hi++
		}
		c.nextID++
		sh := &shard{
			task: ShardTask{
				ID:    fmt.Sprintf("%.12s.%d.%s.%d", key, phase, c.epoch, c.nextID),
				Key:   key,
				Req:   req,
				Phase: phase,
				Lo:    lo,
				Hi:    hi,
			},
			run: run,
		}
		run.remaining++
		c.pending = append(c.pending, sh)
		shards++
		lo = hi
	}
	c.mu.Unlock()
	if prefilled > 0 {
		ph.Record("journal-recovery", recStart, time.Since(recStart),
			recoveryAttrs(prefilled, c.epoch, prevEpoch)...)
		c.cfg.Logger.Info("dist: resuming: units recovered from journal",
			"campaign", service.ShortKey(key), "phase", phase, "recovered", prefilled, "total", total,
			"remaining", total-prefilled, "shards", shards)
	} else {
		c.cfg.Logger.Info("dist: phase sharded",
			"campaign", service.ShortKey(key), "phase", phase, "units", total, "shards", shards, "workers", live)
	}
	// Publish the starting point (non-zero after a journal resume) so
	// subscribers see recovered progress before the first merge lands.
	run.publish(prefilled)

	exited := make(chan struct{})
	go func() {
		defer close(exited)
		c.executeInProcess(ctx, run)
	}()
	defer func() { <-exited }()
	select {
	case <-run.done:
		if run.err == nil {
			// Merges report after releasing c.mu; the phase's final count
			// must still land before the next phase reports.
			run.publish(total)
		}
		return run.counts, run.err
	case <-ctx.Done():
		c.mu.Lock()
		c.finishRunLocked(run, ctx.Err())
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// publish reports phase progress, never backwards.
func (run *campaignRun) publish(done int) {
	if run.progress == nil {
		return
	}
	run.pmu.Lock()
	defer run.pmu.Unlock()
	if done <= run.reported {
		return
	}
	run.reported = done
	run.progress(done, run.total)
}

// inProcessWorker is the worker attr of shards the coordinator executed
// itself; registered workers' IDs ("w-N") never collide with it.
const inProcessWorker = "coordinator"

// executeInProcess is the coordinator's in-process executor for one phase
// run. It takes the run's pending shards while no remote worker is live — at
// Run start on an empty fleet, after the fleet dies, right after a journal
// restart — or once the phase went local after a shard exhausted
// MaxAttempts. Each shard runs on the coordinator's own plan and merges and
// journals through the same path as a remote result, so the executor only
// ever fills the ranges still missing. It returns when the run finishes, its
// context is canceled or the coordinator closes.
func (c *Coordinator) executeInProcess(ctx context.Context, run *campaignRun) {
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for ctx.Err() == nil {
		if sh, base := c.takeInProcess(run); sh != nil {
			start := time.Now()
			counts, err := run.plan.Counts(ctx, sh.task.Phase, sh.task.Lo, sh.task.Hi, func(done, _ int) {
				run.publish(base + done)
			})
			exec := time.Since(start)
			merged := -1 // below any published count: publish ignores it
			c.mu.Lock()
			switch {
			case run.finished:
			case err != nil:
				// Canceled, or an error a re-run would only repeat.
				c.finishRunLocked(run, err)
			default:
				merged = c.mergeLocked(sh, counts, inProcessWorker, nil, exec, time.Now())
			}
			c.mu.Unlock()
			run.publish(merged)
			continue
		}
		select {
		case <-run.done:
			return
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// takeInProcess claims the run's oldest pending shard for the in-process
// executor, or returns nil while the fleet should take it (or nothing is
// pending). base is the run's merged unit count at the claim, the offset of
// the shard's in-process progress.
func (c *Coordinator) takeInProcess(run *campaignRun) (sh *shard, base int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if run.finished || (!run.local && c.liveWorkersLocked(now) > 0) {
		return nil, 0
	}
	for i, p := range c.pending {
		if p.run == run {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			p.leaseAt = now
			return p, run.doneUnits
		}
	}
	return nil, 0
}

// recoveryAttrs builds the journal-recovery span's attributes. prevEpoch,
// when known, links this recovered timeline to the prior incarnation's trace:
// that trace's shard spans carry the same epoch value, so an operator can
// join the two halves of the campaign across the restart.
func recoveryAttrs(units int, epoch, prevEpoch string) []obs.Attr {
	attrs := []obs.Attr{obs.A("units", units), obs.A("epoch", epoch)}
	if prevEpoch != "" {
		attrs = append(attrs, obs.A("prevEpoch", prevEpoch))
	}
	return attrs
}

// finishRunLocked resolves a run exactly once and strips its shards from the
// queues; late results for them are ignored (or, post-success, harmlessly
// redundant — counts are deterministic).
func (c *Coordinator) finishRunLocked(run *campaignRun, err error) {
	if run.finished {
		return
	}
	run.finished = true
	run.err = err
	kept := c.pending[:0]
	for _, sh := range c.pending {
		if sh.run != run {
			kept = append(kept, sh)
		}
	}
	c.pending = kept
	for id, sh := range c.leased {
		if sh.run == run {
			delete(c.leased, id)
		}
	}
	close(run.done)
}

// register admits a new worker. It fails while draining: a terminating
// coordinator must not accrete fleet.
func (c *Coordinator) register(name string) (registerResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return registerResponse{}, errDraining
	}
	c.nextID++
	w := &workerState{
		id:       fmt.Sprintf("w-%d", c.nextID),
		name:     name,
		lastSeen: time.Now(),
	}
	c.workers[w.id] = w
	c.cfg.Logger.Info("dist: worker registered", "worker", w.id, "name", w.name)
	return registerResponse{
		ID:          w.id,
		LeaseMillis: c.cfg.LeaseTTL.Milliseconds(),
		PollMillis:  c.cfg.Poll.Milliseconds(),
	}, nil
}

// touchLocked refreshes a worker's liveness and its lease deadlines.
func (c *Coordinator) touchLocked(w *workerState, now time.Time) {
	w.lastSeen = now
	for _, sh := range c.leased {
		if sh.worker == w.id {
			sh.deadline = now.Add(c.cfg.LeaseTTL)
		}
	}
}

// heartbeat keeps a worker (and its leases) alive and absorbs its federated
// metric snapshot when one rides along (older workers post empty bodies).
// Unknown IDs report false so the worker re-registers — the coordinator may
// have restarted.
func (c *Coordinator) heartbeat(workerID string, snap *MetricsSnapshot) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return false
	}
	now := time.Now()
	c.touchLocked(w, now)
	if snap != nil {
		// The snapshot crossed the network: validate the histogram layout
		// before it can reach the exposition writer (a short Counts slice
		// would panic it, a cooked one would fail metricscheck for everyone).
		if len(snap.Exec.Bounds) > 0 && !snap.Exec.Valid() {
			snap.Exec = obs.HistogramSnapshot{}
		}
		w.snap = snap
	}
	return true
}

// lease hands the oldest pending shard to a worker, or nil when none is
// leasable (shards of a phase gone local stay with the in-process executor).
// Leasing (like any contact) refreshes the worker's liveness. A
// flagged straggler is deprioritized: while a healthy worker is live it gets
// no work (the healthy fleet drains the queue instead), until its probation
// lapses and it earns one probe shard to re-measure itself.
func (c *Coordinator) lease(workerID string) (*ShardTask, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return nil, errUnknownWorker
	}
	now := time.Now()
	c.touchLocked(w, now)
	next := -1
	for i, sh := range c.pending {
		if !sh.run.local {
			next = i
			break
		}
	}
	if next < 0 {
		return nil, nil
	}
	if w.straggler && c.healthyLiveLocked(w, now) {
		if now.Sub(w.flaggedAt) < c.cfg.StragglerProbation {
			return nil, nil // idle answer; the healthy fleet takes the shard
		}
		// Probation probe: grant one lease and restart the clock. The merge
		// re-measures the worker; a recovered node un-flags itself.
		w.flaggedAt = now
	}
	sh := c.pending[next]
	c.pending = append(c.pending[:next], c.pending[next+1:]...)
	sh.worker = workerID
	sh.deadline = now.Add(c.cfg.LeaseTTL)
	sh.leaseAt = now
	c.leased[sh.task.ID] = sh
	task := sh.task
	return &task, nil
}

// result merges a completed shard (or records its failure). Stale results —
// for runs already finished or tasks this coordinator no longer tracks —
// are dropped: determinism makes duplicates harmless, so no error surfaces.
func (c *Coordinator) result(workerID string, res ShardResult) {
	c.mu.Lock()
	now := time.Now()
	w := c.workers[workerID]
	if w != nil {
		c.touchLocked(w, now)
	}
	sh, ok := c.leased[res.Task]
	if !ok {
		// A re-queued shard (expired lease) being answered by its original,
		// slow-but-alive worker: still mergeable, pull it out of pending.
		for i, p := range c.pending {
			if p.task.ID == res.Task {
				sh, ok = p, true
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
	}
	if !ok || sh.run.finished {
		c.mu.Unlock()
		return
	}
	delete(c.leased, res.Task)
	run := sh.run

	// The counts crossed the network: a worker that is buggy or hostile
	// must not merge a count that would reduce to an accuracy outside [0, 1].
	msg := res.Error
	if msg == "" {
		if err := run.plan.CheckCounts(sh.task.Phase, sh.task.Lo, sh.task.Hi, res.Counts); err != nil {
			msg = err.Error()
		}
	}
	if msg != "" {
		sh.attempts++
		c.cfg.Logger.Warn("dist: shard failed",
			"shard", res.Task, "worker", workerID, "attempt", sh.attempts, "max", c.cfg.MaxAttempts, "err", msg)
		if sh.attempts >= c.cfg.MaxAttempts && !run.local {
			run.local = true
			c.cfg.Logger.Warn("dist: shard failed on every attempt; executing its phase in-process",
				"shard", res.Task, "attempts", sh.attempts, "err", msg)
		}
		sh.worker = ""
		c.pending = append(c.pending, sh)
		c.mu.Unlock()
		return
	}
	merged := c.mergeLocked(sh, res.Counts, workerID, w, time.Duration(res.ExecNanos), now)
	c.mu.Unlock()
	run.publish(merged)
}

// mergeLocked folds a validated shard's counts into its run, journals the
// range and records the merge in the trace, for remote (w non-nil) and
// in-process shards alike, and returns the run's merged unit count for the
// caller to publish once c.mu is released. The span is recorded before a
// last merge resolves the run, so Run's caller never sees a phase without
// all its shard spans. Called with c.mu held.
func (c *Coordinator) mergeLocked(sh *shard, counts []int, workerID string, w *workerState, exec time.Duration, now time.Time) int {
	run := sh.run
	copy(run.counts[sh.task.Lo:sh.task.Hi], counts)
	// Journal the merged range so a restarted coordinator pre-fills it
	// instead of re-running it. The counts are copied: remote counts alias a
	// decode buffer owned by the handler.
	if cs := c.registry[sh.task.Key]; cs != nil {
		merged := make([]int, len(counts))
		copy(merged, counts)
		cs.phases[sh.task.Phase] = append(cs.phases[sh.task.Phase], shardRange{lo: sh.task.Lo, hi: sh.task.Hi, counts: merged})
		c.jrnl.append(journalRecord{T: recShard, Key: sh.task.Key, Phase: sh.task.Phase, Lo: sh.task.Lo, Hi: sh.task.Hi, Counts: merged})
		c.compactIfNeededLocked()
	}
	units := sh.task.Hi - sh.task.Lo
	straggler := false
	if w != nil {
		w.shards++
		// Feed the straggler detector: exec seconds per unit, exponentially
		// weighted so the flag follows the worker's current speed, not its
		// history. Recomputing fleet flags here (under mu, per merge) is
		// O(workers) on a campaign-granular path — noise next to the shard.
		if exec > 0 && units > 0 {
			per := exec.Seconds() / float64(units)
			if w.samples == 0 {
				w.unitEWMA = per
			} else {
				w.unitEWMA = stragglerAlpha*per + (1-stragglerAlpha)*w.unitEWMA
			}
			w.samples++
			c.recomputeStragglersLocked(now)
		}
		straggler = w.straggler
	}
	// Stitch the shard into the campaign timeline: the span covers
	// lease-to-merge on the coordinator's clock, with the execution time
	// attached as a duration (immune to clock skew between machines). Shard
	// IDs are epoch-stamped, so traces distinguish pre- and post-restart work.
	attrs := []obs.Attr{
		obs.A("shard", sh.task.ID), obs.A("worker", workerID), obs.A("epoch", c.epoch),
		obs.A("lo", sh.task.Lo), obs.A("hi", sh.task.Hi),
		obs.A("exec", exec), obs.A("attempt", sh.attempts+1),
	}
	if straggler {
		attrs = append(attrs, obs.A("straggler", true))
	}
	run.span.Record("shard", sh.leaseAt, now.Sub(sh.leaseAt), attrs...)
	if run.o.Metrics != nil && exec > 0 {
		run.o.Metrics.ShardExec.Observe(exec.Seconds())
	}
	run.remaining--
	run.doneUnits += units
	if run.remaining == 0 {
		c.finishRunLocked(run, nil)
	}
	return run.doneUnits
}

// janitor periodically re-queues expired leases (the in-process executor
// takes them once no remote worker is live) and prunes long-dead workers.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.expire(now)
		}
	}
}

// expire is one janitor pass.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	for id, sh := range c.leased {
		if now.After(sh.deadline) {
			c.cfg.Logger.Info("dist: lease expired; re-queueing shard", "shard", id, "worker", sh.worker)
			delete(c.leased, id)
			sh.worker = ""
			c.pending = append(c.pending, sh)
		}
	}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > 20*c.cfg.LeaseTTL {
			delete(c.workers, id) // long dead: drop from the registry/metrics
		}
	}
	c.mu.Unlock()
}
