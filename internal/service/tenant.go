package service

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Multi-tenancy: API keys map to named tenants, and the single bounded FIFO
// the service used to run is replaced by per-tenant queues drained with
// deficit round robin (DRR). Each tenant has a weight (its long-run share of
// execution slots), an optional quota (a hard cap on queued+running
// campaigns, enforced with 429s), and per-campaign priorities within its own
// queue. Unauthenticated deployments keep the old behavior exactly: every
// submission lands on the built-in default tenant, and DRR over one tenant
// is a FIFO.

// DefaultTenant is the built-in tenant used when no key table is configured
// (open deployments, the local CLI path, and recovery resubmissions).
const DefaultTenant = "default"

// Priority bounds for CampaignRequest.Priority: 0 (lowest, the default) to
// MaxPriority. Priorities order campaigns within one tenant's queue only —
// across tenants, weights decide.
const MaxPriority = 9

// Tenant is one named principal of the service.
type Tenant struct {
	// Name labels the tenant in /metrics and logs.
	Name string
	// Weight is the tenant's DRR share (default 1): a weight-3 tenant gets
	// three campaign slots for every one a weight-1 tenant gets, when both
	// have work queued.
	Weight int
	// Quota caps the tenant's queued+running campaigns (0 = unlimited).
	// Submissions beyond it fail with ErrQuotaExceeded (HTTP 429).
	Quota int
}

// TenantTable maps API keys to tenants. Immutable after load.
type TenantTable struct {
	byKey map[string]*Tenant
}

// Lookup resolves an API key to its tenant.
func (t *TenantTable) Lookup(apiKey string) (*Tenant, bool) {
	if t == nil || apiKey == "" {
		return nil, false
	}
	ten, ok := t.byKey[apiKey]
	return ten, ok
}

// Valid reports whether apiKey belongs to any tenant (the fleet-endpoint
// auth hook, which needs membership, not identity).
func (t *TenantTable) Valid(apiKey string) bool {
	_, ok := t.Lookup(apiKey)
	return ok
}

// Len is the number of distinct keys in the table.
func (t *TenantTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.byKey)
}

// ParseTenantTable reads a key table from its text form, one key per line:
//
//	# comment
//	<api-key> <tenant-name> [weight=N] [quota=N]
//
// Several keys may name the same tenant (they share its queue, weight and
// quota), but restating weight= or quota= with a different value is an
// error — a tenant has one configuration.
func ParseTenantTable(src string) (*TenantTable, error) {
	table := &TenantTable{byKey: map[string]*Tenant{}}
	tenants := map[string]*Tenant{}
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("service: keys line %d: want \"<api-key> <tenant> [weight=N] [quota=N]\", got %q", i+1, line)
		}
		key, name := fields[0], fields[1]
		if name == "" || strings.HasPrefix(name, "weight=") || strings.HasPrefix(name, "quota=") {
			return nil, fmt.Errorf("service: keys line %d: missing tenant name", i+1)
		}
		if !utf8.ValidString(name) {
			// The name labels the tenant's /metrics series, whose text
			// format allows only UTF-8.
			return nil, fmt.Errorf("service: keys line %d: tenant name %q is not valid UTF-8", i+1, name)
		}
		weight, quota := 1, 0
		for _, attr := range fields[2:] {
			k, v, ok := strings.Cut(attr, "=")
			if !ok {
				return nil, fmt.Errorf("service: keys line %d: bad attribute %q", i+1, attr)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("service: keys line %d: %s=%q is not a non-negative integer", i+1, k, v)
			}
			switch k {
			case "weight":
				if n < 1 {
					return nil, fmt.Errorf("service: keys line %d: weight must be >= 1", i+1)
				}
				weight = n
			case "quota":
				quota = n
			default:
				return nil, fmt.Errorf("service: keys line %d: unknown attribute %q", i+1, k)
			}
		}
		if _, dup := table.byKey[key]; dup {
			return nil, fmt.Errorf("service: keys line %d: duplicate API key", i+1)
		}
		if ten, ok := tenants[name]; ok {
			if ten.Weight != weight || ten.Quota != quota {
				return nil, fmt.Errorf("service: keys line %d: tenant %q redeclared with conflicting weight/quota", i+1, name)
			}
			table.byKey[key] = ten
			continue
		}
		ten := &Tenant{Name: name, Weight: weight, Quota: quota}
		tenants[name] = ten
		table.byKey[key] = ten
	}
	if len(table.byKey) == 0 {
		return nil, fmt.Errorf("service: key table has no entries")
	}
	return table, nil
}

// LoadTenantTable reads a key table file (see ParseTenantTable).
func LoadTenantTable(path string) (*TenantTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: read key table: %w", err)
	}
	t, err := ParseTenantTable(string(data))
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", path, err)
	}
	return t, nil
}

// TenantStat is one tenant's /metrics snapshot.
type TenantStat struct {
	Name string
	// QueueDepth / Running are current occupancy (quota counts both).
	QueueDepth int
	Running    int
	// Admitted / Rejected count submissions that consumed queue capacity
	// vs. those refused (queue full or over quota). Coalesced submissions
	// and cache hits count as neither — they cost nothing.
	Admitted int64
	Rejected int64
	// ServedUnits totals the campaign work units executed for this tenant —
	// the fair-share currency the weights apportion.
	ServedUnits int64
}

// tenantQueue is the scheduler's per-tenant state: priority buckets, the DRR
// deficit counter, and accounting.
type tenantQueue struct {
	name    string
	weight  int
	quota   int
	credit  int // DRR deficit: jobs this tenant may still dequeue this visit
	buckets [MaxPriority + 1][]*Job
	queued  int
	running int

	admitted, rejected, servedUnits int64
}

// pop removes the oldest job of the highest non-empty priority bucket.
func (tq *tenantQueue) pop() *Job {
	for p := MaxPriority; p >= 0; p-- {
		b := tq.buckets[p]
		if len(b) == 0 {
			continue
		}
		j := b[0]
		b[0] = nil // release for GC; the slice is reused
		tq.buckets[p] = b[1:]
		tq.queued--
		return j
	}
	return nil
}

// scheduler replaces the single bounded FIFO channel: per-tenant priority
// queues drained with deficit round robin. The global depth bound is
// unchanged — QueueDepth still caps total *waiting* campaigns, so the
// admission behavior of an open deployment is exactly the old channel's.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	depth  int // global bound on waiting jobs
	closed bool

	queues map[string]*tenantQueue
	ring   []string // DRR visit order; tenants are appended once, never removed
	cursor int
	queued int // total waiting jobs across tenants
}

func newScheduler(depth int) *scheduler {
	sc := &scheduler{depth: depth, queues: map[string]*tenantQueue{}}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// queueFor returns (creating if needed) the tenant's queue. The default
// tenant materializes on first use like any other.
func (sc *scheduler) queueFor(t *Tenant) *tenantQueue {
	tq, ok := sc.queues[t.Name]
	if !ok {
		tq = &tenantQueue{name: t.Name, weight: max(t.Weight, 1), quota: t.Quota}
		sc.queues[t.Name] = tq
		sc.ring = append(sc.ring, t.Name)
	}
	return tq
}

// enqueue admits a job to its tenant's queue, or rejects it: ErrClosed after
// shutdown begins, ErrQueueFull at the global depth bound, ErrQuotaExceeded
// at the tenant's own cap. The job's tenant and priority were fixed by
// Submit.
func (sc *scheduler) enqueue(j *Job, t *Tenant) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return ErrClosed
	}
	tq := sc.queueFor(t)
	if sc.queued >= sc.depth {
		tq.rejected++
		return ErrQueueFull
	}
	if tq.quota > 0 && tq.queued+tq.running >= tq.quota {
		tq.rejected++
		return ErrQuotaExceeded
	}
	p := j.priority
	tq.buckets[p] = append(tq.buckets[p], j)
	tq.queued++
	tq.admitted++
	sc.queued++
	sc.cond.Signal()
	return nil
}

// next blocks until a job is dequeued or the scheduler is closed and empty
// (nil — the calling worker exits). Closing does not discard queued work:
// like the old closed channel, workers drain what was admitted.
func (sc *scheduler) next() *Job {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		if j := sc.dequeueLocked(); j != nil {
			return j
		}
		if sc.closed {
			return nil
		}
		sc.cond.Wait()
	}
}

// dequeueLocked is one DRR step: visit tenants in ring order from the
// cursor; an empty queue forfeits its deficit, a non-empty one replenishes
// by its weight when exhausted and pays one credit per campaign. A tenant
// keeps the cursor until its credit or queue runs out, so a weight-w tenant
// dequeues up to w consecutive campaigns per visit — that burst, amortized
// around the ring, is exactly the w : 1 long-run share.
func (sc *scheduler) dequeueLocked() *Job {
	if sc.queued == 0 {
		return nil
	}
	for i := 0; i <= len(sc.ring); i++ { // <=: the cursor tenant may be mid-burst
		tq := sc.queues[sc.ring[sc.cursor%len(sc.ring)]]
		if tq.queued == 0 {
			tq.credit = 0
			sc.cursor++
			continue
		}
		if tq.credit <= 0 {
			tq.credit = tq.weight
		}
		j := tq.pop()
		tq.credit--
		// Stamp the post-decrement deficit for the job's queue-wait span.
		// Safe without j.mu: the dequeuing goroutine is the same one that
		// will run the job, and nothing else reads j.deficit before then.
		j.deficit = tq.credit
		tq.running++
		sc.queued--
		if tq.credit <= 0 || tq.queued == 0 {
			sc.cursor++
		}
		return j
	}
	return nil
}

// done returns a job's execution slot and credits its served units to the
// tenant.
func (sc *scheduler) done(j *Job, units int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if tq, ok := sc.queues[j.tenant]; ok {
		tq.running--
		tq.servedUnits += units
	}
}

// close wakes every blocked worker; queued jobs still drain.
func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	sc.cond.Broadcast()
}

// depthNow is the total number of waiting campaigns (the /metrics gauge the
// old len(chan) provided).
func (sc *scheduler) depthNow() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.queued
}

// stats snapshots every tenant that has ever submitted, sorted by name.
func (sc *scheduler) stats() []TenantStat {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]TenantStat, 0, len(sc.queues))
	for _, tq := range sc.queues {
		out = append(out, TenantStat{
			Name:        tq.name,
			QueueDepth:  tq.queued,
			Running:     tq.running,
			Admitted:    tq.admitted,
			Rejected:    tq.rejected,
			ServedUnits: tq.servedUnits,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
