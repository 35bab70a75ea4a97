package dist

import (
	"context"
	"encoding/json"
	"errors"
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

// Fleet timing defaults, shared by the coordinator, the worker's fallbacks
// and wfserve's flags.
const (
	// DefaultLeaseTTL is CoordinatorConfig.LeaseTTL's default.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultPoll is CoordinatorConfig.Poll's default.
	DefaultPoll = 500 * time.Millisecond
)

// CoordinatorConfig sizes the shard dispatcher.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker may stay silent before its registration
	// lapses and its leased shards are re-queued (DefaultLeaseTTL). Workers
	// heartbeat at a third of this.
	LeaseTTL time.Duration
	// Poll bounds how long an idle worker's lease request is held open
	// waiting for a shard before it is answered 204 (DefaultPoll). A held
	// request is answered the moment a shard is queued, so Poll sets the
	// idle request rate (about one per Poll per worker), not the latency of
	// new work.
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
	// wake is closed, and cleared, whenever a shard becomes pending; lease
	// requests that found nothing to lease wait on it (handleLease). nil
	// while no request waits.
	wake     chan struct{}
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
	// them monotonic; -1 until the starting point is published. A phase
	// reports nothing until it opens (open), once the phase before it
	// completed.
	progress func(done, total int)
	pmu      sync.Mutex
	reported int
	// opened is set by open under both the coordinator's mu and pmu, so
	// holding either one reads it.
	opened bool
	// o and span carry the campaign's observability handles into result(),
	// which runs on handler goroutines: merged shards become child spans of
	// the phase span and worker exec times feed the ShardExec histogram.
	// Until the phase opens, early holds the child spans recorded for it
	// (guarded by the coordinator's mu).
	o     obs.Obs
	span  *obs.Span
	early []spanRecord
}

// spanRecord is a finished child span waiting for its phase span to open.
type spanRecord struct {
	name  string
	start time.Time
	d     time.Duration
	attrs []obs.Attr
}

// NewCoordinator builds a coordinator and starts its lease janitor; stop it
// with Close. With a JournalPath it replays the journal first, so Recovered
// reports the campaigns a previous incarnation left unfinished.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
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

// Close stops the lease janitor, answers every held lease request and
// releases the journal handle. In-flight Run calls are not interrupted
// (their contexts are); Close exists so tests and shutdown leak nothing.
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

// BeginDrain stops accepting new worker registrations and stops holding
// idle lease requests: the held ones are answered at once, so an
// http.Server.Shutdown after the drain never waits out a Poll. Existing
// workers keep leasing and reporting so in-flight campaigns finish inside
// the drain budget; new fleet members should register with a coordinator
// that will outlive them. The service calls it from its own BeginDrain and
// Close (service.Distributor).
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.wakeLocked()
	c.mu.Unlock()
}

// wakeLocked answers the lease requests waiting for work: a shard became
// pending, or the coordinator is draining. Called with c.mu held.
func (c *Coordinator) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
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

// Run executes one campaign (service.Distributor): shard the unit space of
// every phase of the campaign's plan at once, let the fleet lease the
// shards — or, while no remote worker is live, execute them in-process —
// merge the counts, and reduce the phases in order. The returned bytes are
// byte-identical to the service's in-process run of the same request: the
// marshaled result of the same index-ordered integer reduction.
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

	// The plan describes the campaign from its geometry: it gives the unit
	// totals, validates merged counts and reduces them. It builds an
	// executor — weights, dataset, golden pass — only when a shard runs
	// in-process.
	plan, err := winofault.NewPlan(req)
	if err != nil {
		return nil, err
	}
	phases := plan.Phases()
	runs := make([]*campaignRun, len(phases))
	for i, phase := range phases {
		runs[i] = &campaignRun{
			plan:     plan,
			counts:   make([]int, phase.Units),
			total:    phase.Units,
			done:     make(chan struct{}),
			progress: func(done, total int) { progress(i, done, total) },
			reported: -1,
			o:        o,
		}
	}
	// Every phase is queued now: the layers phase runs at BERs[len/2] and
	// reads none of the sweep's counts, so a worker that finishes its sweep
	// shards goes straight on to the layers phase.
	c.queue(key, req, runs)

	over := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		c.executeInProcess(ctx, runs, over)
	}()
	defer func() {
		// A failed or canceled campaign's shards leave the queues with it.
		c.mu.Lock()
		for _, run := range runs {
			c.finishRunLocked(run, errCampaignOver)
		}
		c.mu.Unlock()
		close(over)
		<-exited
	}()
	var res winofault.CampaignResult
	var ph *obs.Span
	for i, phase := range phases {
		// Phase spans tile the campaign: each opens where the one before it
		// ended, and a shard merged before its phase opened is recorded
		// under it at its true lease time.
		ph = o.Trace.StartAfter(ph, "phase", obs.A("phase", phase.Name), obs.A("path", "dist"), obs.A("units", phase.Units))
		c.open(runs[i], ph)
		counts, err := c.wait(ctx, runs[i])
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

// errCampaignOver resolves the phase runs a campaign left unfinished when
// Run returned early; nothing reads it.
var errCampaignOver = errors.New("dist: campaign over")

// queue shards the unit index space [0, total) of every phase run into
// contiguous ranges and queues them in phase order. Each phase first
// pre-fills the unit ranges a previous incarnation merged and journaled, so
// only the gaps are sharded.
func (c *Coordinator) queue(key string, req winofault.CampaignRequest, runs []*campaignRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.liveWorkersLocked(time.Now())
	for phase, run := range runs {
		recStart := time.Now()
		total := run.total
		covered, prevEpoch := c.prefillLocked(key, phase, run)
		prefilled := run.doneUnits
		if prefilled > 0 {
			run.recordLocked("journal-recovery", recStart, time.Since(recStart), recoveryAttrs(prefilled, c.epoch, prevEpoch)...)
		}
		if prefilled == total {
			// Nothing to execute: the phase is empty (e.g. every BER <= 0),
			// or it was merged whole before the crash.
			if total > 0 {
				c.cfg.Logger.Info("dist: all units recovered from journal",
					"campaign", service.ShortKey(key), "phase", phase, "units", total)
			}
			c.finishRunLocked(run, nil)
			continue
		}
		size := c.cfg.ShardUnits
		if size <= 0 {
			// About two shards per live worker: re-leases stay cheap and a
			// slow node can't serialize the tail. With no live worker the
			// coordinator executes the phase itself, so each remaining gap
			// is one range.
			size = total
			if live > 0 {
				size = (total - prefilled + 2*live - 1) / (2 * live)
			}
		}
		size = max(size, 1)
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
			c.pending = append(c.pending, &shard{
				task: ShardTask{
					ID:    fmt.Sprintf("%.12s.%d.%s.%d", key, phase, c.epoch, c.nextID),
					Key:   key,
					Req:   req,
					Phase: phase,
					Lo:    lo,
					Hi:    hi,
				},
				run: run,
			})
			run.remaining++
			shards++
			lo = hi
		}
		if prefilled > 0 {
			c.cfg.Logger.Info("dist: resuming: units recovered from journal",
				"campaign", service.ShortKey(key), "phase", phase, "recovered", prefilled, "total", total,
				"remaining", total-prefilled, "shards", shards)
		} else {
			c.cfg.Logger.Info("dist: phase sharded",
				"campaign", service.ShortKey(key), "phase", phase, "units", total, "shards", shards, "workers", live)
		}
	}
	c.wakeLocked()
}

// prefillLocked resumes a phase run from the campaign's journaled ranges:
// each range that passes the plan's CheckCounts fills its units of
// run.counts and run.doneUnits and is kept; any other is dropped, never
// merged. Counts are deterministic, so a pre-filled range holds exactly the
// integers a re-execution would produce — recovery changes wall-clock time,
// never bytes. It returns which units are pre-filled and, for a campaign a
// previous incarnation registered, that incarnation's epoch. Called with
// c.mu held.
func (c *Coordinator) prefillLocked(key string, phase int, run *campaignRun) (covered []bool, prevEpoch string) {
	covered = make([]bool, run.total)
	cs := c.registry[key]
	if cs == nil {
		return covered, ""
	}
	if cs.recovered && cs.epoch != "" && cs.epoch != c.epoch {
		prevEpoch = cs.epoch
	}
	kept := cs.phases[phase][:0]
	for _, r := range cs.phases[phase] {
		if err := run.plan.CheckCounts(phase, r.lo, r.hi, r.counts); err != nil {
			c.cfg.Logger.Warn("dist: dropping invalid journaled range",
				"campaign", service.ShortKey(key), "phase", phase, "lo", r.lo, "hi", r.hi, "units", run.total, "err", err)
			continue
		}
		kept = append(kept, r)
		for i := r.lo; i < r.hi; i++ {
			if !covered[i] {
				covered[i] = true
				run.counts[i] = r.counts[i-r.lo]
				run.doneUnits++
			}
		}
	}
	cs.phases[phase] = kept
	return covered, prevEpoch
}

// open starts phase run's reporting once the phase before it completed: it
// records the child spans merged before span opened under it, then
// publishes the phase's merged count, from which its progress continues.
func (c *Coordinator) open(run *campaignRun, span *obs.Span) {
	c.mu.Lock()
	run.span = span
	for _, r := range run.early {
		span.Record(r.name, r.start, r.d, r.attrs...)
	}
	run.early = nil
	run.pmu.Lock()
	run.opened = true
	run.pmu.Unlock()
	merged := run.doneUnits
	c.mu.Unlock()
	run.publish(merged)
}

// wait blocks until run finishes or ctx ends, and returns its merged counts.
func (c *Coordinator) wait(ctx context.Context, run *campaignRun) ([]int, error) {
	select {
	case <-run.done:
		if run.err == nil {
			// Merges report after releasing c.mu; the phase's final count
			// must still land before the next phase reports.
			run.publish(run.total)
		}
		return run.counts, run.err
	case <-ctx.Done():
		c.mu.Lock()
		c.finishRunLocked(run, ctx.Err())
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// publish reports phase progress, never backwards, and nothing before the
// phase opens.
func (run *campaignRun) publish(done int) {
	if run.progress == nil {
		return
	}
	run.pmu.Lock()
	defer run.pmu.Unlock()
	if !run.opened || done <= run.reported {
		return
	}
	run.reported = done
	run.progress(done, run.total)
}

// recordLocked adds a finished child span to the phase span, or keeps it
// for open while the phase has not opened. Called with c.mu held.
func (run *campaignRun) recordLocked(name string, start time.Time, d time.Duration, attrs ...obs.Attr) {
	if !run.opened {
		run.early = append(run.early, spanRecord{name, start, d, attrs})
		return
	}
	run.span.Record(name, start, d, attrs...)
}

// inProcessWorker is the worker attr of shards the coordinator executed
// itself; registered workers' IDs ("w-N") never collide with it.
const inProcessWorker = "coordinator"

// executeInProcess is the coordinator's in-process executor for one
// campaign's phase runs. It takes their pending shards, in phase order and
// one at a time, while no remote worker is live — at Run start on an empty
// fleet, after the fleet dies, right after a journal restart — and those of
// a phase that went local after a shard exhausted MaxAttempts. Each shard
// runs on the campaign's plan, whose first Counts builds its executor, and
// merges and journals through the same path as a remote result, so the
// executor only ever fills the ranges still missing. It returns when over
// closes (Run returned), ctx is canceled or the coordinator closes.
func (c *Coordinator) executeInProcess(ctx context.Context, runs []*campaignRun, over <-chan struct{}) {
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for ctx.Err() == nil {
		if sh, base := c.takeInProcess(runs); sh != nil {
			run := sh.run
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
		case <-over:
			return
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// takeInProcess claims the oldest pending shard of the earliest of runs'
// phases the in-process executor may take: all of them while no remote
// worker is live, else those that went local. It returns nil while the
// fleet should take them (or nothing is pending). base is the shard's run's
// merged unit count at the claim, the offset of its in-process progress.
func (c *Coordinator) takeInProcess(runs []*campaignRun) (sh *shard, base int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	live := c.liveWorkersLocked(now) > 0
	for _, run := range runs {
		if run.finished || (!run.local && live) {
			continue
		}
		for i, p := range c.pending {
			if p.run == run {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				p.leaseAt = now
				return p, run.doneUnits
			}
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
		// The snapshot crossed the network: keep its histogram only when
		// the layout is sound, before it can reach the exposition writer (a
		// short Counts slice would panic it, a cooked one would serve
		// negative buckets to every scraper). Anything else becomes the
		// zero snapshot, which the writer skips.
		if !snap.Exec.Valid() {
			snap.Exec = obs.HistogramSnapshot{}
		}
		w.snap = snap
	}
	return true
}

// lease hands the oldest pending shard to a worker. When none is leasable
// (shards of a phase gone local stay with the in-process executor) it
// returns a channel that closes once a shard becomes pending, taken under
// the same lock as the empty-queue check so no shard queued after the check
// goes unannounced; the channel is nil while draining, when idle requests
// are answered at once. Leasing (like any contact) refreshes the worker's
// liveness. A flagged straggler is deprioritized: while a healthy worker is
// live it gets no work (the healthy fleet drains the queue instead), until
// its probation lapses and it earns one probe shard to re-measure itself.
func (c *Coordinator) lease(workerID string) (*ShardTask, <-chan struct{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return nil, nil, errUnknownWorker
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
	if next >= 0 && w.straggler && c.healthyLiveLocked(w, now) {
		if now.Sub(w.flaggedAt) < c.cfg.StragglerProbation {
			next = -1 // idle answer; the healthy fleet takes the shard
		} else {
			// Probation probe: grant one lease and restart the clock. The
			// merge re-measures the worker; a recovered node un-flags itself.
			w.flaggedAt = now
		}
	}
	if next < 0 {
		if c.draining {
			return nil, nil, nil
		}
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		return nil, c.wake, nil
	}
	sh := c.pending[next]
	c.pending = append(c.pending[:next], c.pending[next+1:]...)
	sh.worker = workerID
	sh.deadline = now.Add(c.cfg.LeaseTTL)
	sh.leaseAt = now
	c.leased[sh.task.ID] = sh
	task := sh.task
	return &task, nil, nil
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
		c.wakeLocked()
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
	run.recordLocked("shard", sh.leaseAt, now.Sub(sh.leaseAt), attrs...)
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
			c.wakeLocked()
		}
	}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > 20*c.cfg.LeaseTTL {
			delete(c.workers, id) // long dead: drop from the registry/metrics
		}
	}
	c.mu.Unlock()
}
