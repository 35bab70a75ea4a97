package service

import (
	"context"
	"sync"
	"time"

	winofault "repro"
	"repro/internal/obs"
)

// Job is one submitted campaign moving through the queue. Identical
// concurrent submissions coalesce onto a single Job, so a stampede of equal
// requests costs one execution; every waiter observes the same result.
type Job struct {
	// Key is the campaign's content address (see Key); it doubles as the
	// job's public ID.
	Key string

	req    winofault.CampaignRequest
	ctx    context.Context
	cancel context.CancelFunc

	// tenant and priority place the job in the fair-share scheduler; both
	// are fixed at submission. Coalesced waiters share the first submitter's
	// placement — the job is the content address, not the caller.
	tenant   string
	priority int
	// viewers is the set of tenants that submitted this job (the original
	// submitter plus every coalesced one); it gates who may observe the job
	// over HTTP. nil means unrestricted (cache-synthesized jobs).
	viewers map[string]struct{}

	// Observability, all set by Submit before enqueue and read only by the
	// single runJob goroutine that dequeues the job — no locking needed.
	// o carries the job's trace and the service metrics into the execution
	// path (also threaded through j.ctx for the dist/local runners).
	o obs.Obs
	// queueSpan is the open queue-wait span; runJob ends it at dequeue.
	queueSpan *obs.Span
	// enqueuedAt timestamps admission for the queue-wait and end-to-end
	// latency histograms. Zero for jobs that never entered the queue.
	enqueuedAt time.Time
	// deficit is the tenant's remaining DRR credit observed at dequeue,
	// stamped by the scheduler for the queue-wait span.
	deficit int

	mu     sync.Mutex
	state  string // StateQueued -> StateRunning -> StateDone/StateFailed
	cached bool
	batch  int // sequence number of the unit batch done/total describe
	done   int
	total  int
	units  int // completed units of earlier batches (served-units accounting)
	data   []byte
	err    error
	subs   map[chan winofault.CampaignStatus]struct{}
	doneCh chan struct{}
}

func newJob(parent context.Context, key string, req winofault.CampaignRequest, tenant string, priority int) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		Key:      key,
		req:      req,
		ctx:      ctx,
		cancel:   cancel,
		tenant:   tenant,
		priority: priority,
		viewers:  map[string]struct{}{tenant: {}},
		state:    winofault.StateQueued,
		subs:     map[chan winofault.CampaignStatus]struct{}{},
		doneCh:   make(chan struct{}),
	}
}

// cachedJob wraps an already-cached result as a completed job so cache hits
// and fresh runs share one shape all the way to the HTTP layer.
func cachedJob(key string, data []byte) *Job {
	j := &Job{
		Key:    key,
		state:  winofault.StateDone,
		cached: true,
		data:   data,
		doneCh: make(chan struct{}),
	}
	close(j.doneCh)
	return j
}

// Status snapshots the job as its wire envelope (without result bytes; see
// StatusWithResult).
func (j *Job) Status() winofault.CampaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() winofault.CampaignStatus {
	st := winofault.CampaignStatus{
		ID:     j.Key,
		State:  j.state,
		Cached: j.cached,
		Done:   j.done,
		Total:  j.total,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// StatusWithResult is Status plus the raw result bytes once the job is done.
func (j *Job) StatusWithResult() winofault.CampaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if j.state == winofault.StateDone {
		st.Result = j.data
	}
	return st
}

// Wait blocks until the job finishes or ctx is canceled, returning the raw
// result bytes.
func (j *Job) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-j.doneCh:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.data, j.err
}

// Subscribe registers a progress listener: the channel receives a status
// snapshot for every progress update and a final one when the job finishes,
// then closes. Slow listeners drop intermediate snapshots (the channel is
// conflated), never block the campaign. The returned func unsubscribes.
func (j *Job) Subscribe() (<-chan winofault.CampaignStatus, func()) {
	ch := make(chan winofault.CampaignStatus, 8)
	j.mu.Lock()
	finished := j.state == winofault.StateDone || j.state == winofault.StateFailed
	if !finished {
		j.subs[ch] = struct{}{}
	}
	st := j.statusLocked()
	if j.state == winofault.StateDone {
		st.Result = j.data
	}
	// The initial snapshot must go out under the lock: once j.mu drops, a
	// concurrent finish may close ch, and a send would panic. The fresh
	// buffered channel makes the locked send non-blocking.
	ch <- st
	j.mu.Unlock()
	if finished {
		close(ch)
		return ch, func() {}
	}
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// addViewer grants a coalescing submitter's tenant visibility of this job.
func (j *Job) addViewer(tenant string) {
	j.mu.Lock()
	if j.viewers != nil {
		j.viewers[tenant] = struct{}{}
	}
	j.mu.Unlock()
}

// visibleTo reports whether a caller running as tenant may observe this job
// (status, result, events, cancel). Campaign IDs are deterministic request
// hashes, so without this check any tenant that can guess another's request
// parameters could read its results or cancel its runs. Two viewer sets are
// unrestricted by design: cache-synthesized jobs (nil set — resubmitting the
// request would hand the caller the same bytes anyway) and jobs submitted by
// the trusted in-process path as the default tenant (recovery resubmissions
// after a coordinator restart, which cannot know the original submitter).
func (j *Job) visibleTo(tenant string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.viewers == nil {
		return true
	}
	if _, ok := j.viewers[DefaultTenant]; ok {
		return true
	}
	_, ok := j.viewers[tenant]
	return ok
}

// broadcastLocked fans a snapshot out to subscribers without blocking.
func (j *Job) broadcastLocked(st winofault.CampaignStatus) {
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = winofault.StateRunning
	j.broadcastLocked(j.statusLocked())
	j.mu.Unlock()
}

func (j *Job) progress(batch, done, total int) {
	j.mu.Lock()
	// Scheduler workers report concurrently, so done values can arrive out
	// of order; within one batch (fixed total) only forward progress is
	// published. Batches are explicitly sequence-numbered by the runner
	// (sweep, then layer sensitivity), so a new batch resets the count even
	// when its unit total happens to equal the previous batch's.
	if batch < j.batch || (batch == j.batch && total == j.total && done <= j.done) {
		j.mu.Unlock()
		return
	}
	if batch > j.batch {
		// The next phase: bank the finished phase's completed units for
		// served-units accounting.
		j.units += j.done
	}
	j.batch, j.done, j.total = batch, done, total
	j.broadcastLocked(j.statusLocked())
	j.mu.Unlock()
}

// servedUnits totals the campaign work units this job executed across all
// its batches — the tenant accounting currency.
func (j *Job) servedUnits() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int64(j.units + j.done)
}

// finish resolves the job exactly once; err nil means success with data as
// the result bytes. All subscribers get the final snapshot and are closed.
func (j *Job) finish(data []byte, err error) {
	j.mu.Lock()
	if j.state == winofault.StateDone || j.state == winofault.StateFailed {
		j.mu.Unlock()
		return
	}
	if err != nil {
		j.state = winofault.StateFailed
		j.err = err
	} else {
		j.state = winofault.StateDone
		j.data = data
	}
	st := j.statusLocked()
	if err == nil {
		st.Result = data
	}
	// Final snapshot must not be dropped: deliver to every subscriber's
	// buffer after conflating whatever stale snapshot still occupies it.
	for ch := range j.subs {
		for {
			select {
			case ch <- st:
			default:
				// Buffer full: drop one stale snapshot and retry. The job
				// is the only sender, so the retry always terminates.
				select {
				case <-ch:
				default:
				}
				continue
			}
			break
		}
		close(ch)
		delete(j.subs, ch)
	}
	j.mu.Unlock()
	close(j.doneCh)
	if j.cancel != nil {
		j.cancel()
	}
}
