package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed bucket layouts. Hand-picked, not generated: fixed buckets make the
// exposition stable across restarts and diffable across fleets, and the
// ranges cover the latencies this service actually exhibits (see DESIGN.md
// "Observability" for the rationale per metric).
var (
	// DurationBuckets covers campaign-scale work: 1ms to 10min.
	DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 600}
	// ProbeBuckets covers cache probes and other sub-millisecond paths:
	// 25µs to 1s (a disk-tier probe on a cold spindle is the long tail).
	ProbeBuckets = []float64{25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	// ThroughputBuckets covers per-campaign unit throughput in units/second.
	ThroughputBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
)

// Histogram is a fixed-bucket Prometheus histogram: per-bucket atomic
// counters plus an atomically-accumulated sum. Observations are lock-free;
// Write renders the cumulative exposition form. The zero bucket set is
// invalid — build with NewHistogram. A nil *Histogram ignores observations.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search beats a linear scan only past ~30 buckets; these are
	// small and observation is campaign-granular, so clarity wins.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram, suitable for
// shipping over the wire (worker heartbeats) and re-rendering on the far side.
// Counts has one entry per bound plus the +Inf overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot copies the current bucket counts. Count is derived from the
// bucket counts rather than the count atomic: under a concurrent Observe the
// two can be read at different instants, and a +Inf bucket that disagrees
// with _count fails exposition validation on the coordinator.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Valid reports whether the snapshot is structurally sound: ascending
// bounds, one overflow bucket, non-negative counts that sum to Count without
// overflowing int64 (a wrapped sum would render non-cumulative buckets).
// Snapshots arrive from workers over the network, so the coordinator
// validates before storing one.
func (s HistogramSnapshot) Valid() bool {
	if len(s.Bounds) == 0 || len(s.Counts) != len(s.Bounds)+1 {
		return false
	}
	for i := 1; i < len(s.Bounds); i++ {
		if !(s.Bounds[i] > s.Bounds[i-1]) {
			return false
		}
	}
	total := int64(0)
	for _, c := range s.Counts {
		if c < 0 || c > math.MaxInt64-total {
			return false
		}
		total += c
	}
	return total == s.Count
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket, the same estimate PromQL's histogram_quantile
// produces. Returns 0 for an empty snapshot; samples in the +Inf bucket
// report the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// WriteSamples emits the snapshot's cumulative _bucket/_sum/_count sample
// lines (no # HELP/# TYPE header) under the given name and labels, so a
// caller can render many label sets within one family.
func (s HistogramSnapshot) WriteSamples(w io.Writer, name string, labels ...Attr) {
	prefix := labelPrefix(labels)
	cum := int64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, prefix, formatLe(b), cum)
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum)
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatSample(s.Sum))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return
	}
	set := labelSet(labels)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, set, formatSample(s.Sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, set, cum)
}

// formatLe renders a bucket bound the way Prometheus expects.
func formatLe(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// formatSample renders a sample value.
func formatSample(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Write emits the full exposition block: # HELP, # TYPE and the cumulative
// _bucket/_sum/_count samples, each carrying the extra labels (escaped).
func (h *Histogram) Write(w io.Writer, name, help string, labels ...Attr) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	h.Snapshot().WriteSamples(w, name, labels...)
}

// labelPrefix renders `k1="v1",k2="v2",` (with trailing comma) for use
// before the le label.
func labelPrefix(labels []Attr) string {
	out := ""
	for _, l := range labels {
		out += fmt.Sprintf("%s=\"%s\",", l.K, EscapeLabel(l.V))
	}
	return out
}

// labelSet renders `k1="v1",k2="v2"`.
func labelSet(labels []Attr) string {
	out := labelPrefix(labels)
	return out[:len(out)-1]
}

// HistogramVec is a histogram family partitioned by one label (the tenant
// dimension). Label sets materialize on first observation and are never
// dropped — the cardinality is bounded by the tenant table.
type HistogramVec struct {
	label  string
	bounds []float64

	mu sync.Mutex
	hs map[string]*Histogram
}

// NewHistogramVec builds a histogram family keyed by the given label name.
func NewHistogramVec(label string, bounds []float64) *HistogramVec {
	return &HistogramVec{label: label, bounds: bounds, hs: map[string]*Histogram{}}
}

// Observe records one sample under the given label value.
func (v *HistogramVec) Observe(labelValue string, x float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	h, ok := v.hs[labelValue]
	if !ok {
		h = NewHistogram(v.bounds)
		v.hs[labelValue] = h
	}
	v.mu.Unlock()
	h.Observe(x)
}

// Write emits one # HELP/# TYPE header followed by every label value's
// cumulative samples, sorted by label value for stable output.
func (v *HistogramVec) Write(w io.Writer, name, help string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	keys := make([]string, 0, len(v.hs))
	for k := range v.hs {
		keys = append(keys, k)
	}
	hs := make([]*Histogram, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		hs[i] = v.hs[k]
	}
	v.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for i, k := range keys {
		hs[i].Snapshot().WriteSamples(w, name, Attr{K: v.label, V: k})
	}
}

// Metrics is the service-level histogram set shared by the campaign service
// (which observes and serves most of it) and the dist coordinator (which
// observes worker-side shard execution as results merge). Fields are fixed
// at construction; a nil *Metrics ignores every observation.
type Metrics struct {
	// Campaign is end-to-end campaign latency in seconds: submission to
	// terminal state, all outcomes.
	Campaign *Histogram
	// QueueWait is seconds spent waiting in the fair-share queue, by tenant.
	QueueWait *HistogramVec
	// ShardExec is worker-side shard execution seconds, as reported back in
	// the dist result message and observed at merge time.
	ShardExec *Histogram
	// Throughput is per-campaign unit throughput (units/second of execution
	// time), observed once per successful campaign.
	Throughput *Histogram
	// CacheProbe is content-addressed cache probe seconds (memory + disk).
	CacheProbe *Histogram
}

// NewMetrics builds the service histogram set with its fixed buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		Campaign:   NewHistogram(DurationBuckets),
		QueueWait:  NewHistogramVec("tenant", DurationBuckets),
		ShardExec:  NewHistogram(DurationBuckets),
		Throughput: NewHistogram(ThroughputBuckets),
		CacheProbe: NewHistogram(ProbeBuckets),
	}
}

// Write emits every histogram family under its wfserve_* name.
func (m *Metrics) Write(w io.Writer) {
	if m == nil {
		return
	}
	m.Campaign.Write(w, "wfserve_campaign_seconds", "End-to-end campaign latency: submission to terminal state, all outcomes.")
	m.QueueWait.Write(w, "wfserve_queue_wait_seconds", "Seconds campaigns spent waiting in the fair-share queue, per tenant.")
	m.ShardExec.Write(w, "wfserve_shard_exec_seconds", "Worker-side shard execution seconds, reported through the dist result message.")
	m.Throughput.Write(w, "wfserve_campaign_units_per_second", "Per-campaign unit throughput over execution time (successful campaigns).")
	m.CacheProbe.Write(w, "wfserve_cache_probe_seconds", "Content-addressed result cache probe seconds (memory and disk tiers).")
}

// nil-safe Observe on a nil Metrics means call sites never branch.

// ObserveQueueWait records a campaign's queue wait for its tenant.
func (m *Metrics) ObserveQueueWait(tenant string, seconds float64) {
	if m == nil {
		return
	}
	m.QueueWait.Observe(tenant, seconds)
}
