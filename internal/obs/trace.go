package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span.
type Attr struct {
	K string
	V string
}

// A builds an Attr, rendering any value through fmt.Sprint. Attrs are
// recorded at campaign/shard granularity, so the formatting cost is
// irrelevant next to the work being annotated.
func A(k string, v any) Attr {
	switch s := v.(type) {
	case string:
		return Attr{K: k, V: s}
	case time.Duration:
		return Attr{K: k, V: s.String()}
	default:
		return Attr{K: k, V: fmt.Sprint(v)}
	}
}

// Span is one timed region of a campaign's lifecycle. Starts and durations
// are offsets on the trace's monotonic clock (time.Since of the trace
// epoch), so a span is immune to wall-clock adjustments. All methods are
// goroutine-safe (the trace's mutex) and no-ops on a nil receiver.
type Span struct {
	tr    *Trace
	name  string
	start time.Duration // offset from the trace epoch
	dur   time.Duration // valid once open == false
	open  bool
	attrs []Attr
	kids  []*Span
}

// Trace is the span tree of one campaign, keyed by its content address. A
// trace records O(spans) memory where spans are campaign phases and shards —
// never rounds — and lives in a Recorder's bounded ring.
type Trace struct {
	key   string
	epoch time.Time // wall time at Begin; its monotonic reading anchors offsets

	mu   sync.Mutex
	root []*Span
	done bool
}

// Key returns the campaign content address this trace describes.
func (t *Trace) Key() string {
	if t == nil {
		return ""
	}
	return t.key
}

func (t *Trace) now() time.Duration { return time.Since(t.epoch) }

// Start opens a root span. End it with End; an unfinished span renders with
// a zero duration and an open marker.
func (t *Trace) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now(), open: true, attrs: attrs}
	t.root = append(t.root, sp)
	return sp
}

// StartAfter opens a root span at the instant prev ended, so consecutive
// spans tile the timeline with no gap between them. With prev nil or still
// open it is Start.
func (t *Trace) StartAfter(prev *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now(), open: true, attrs: attrs}
	if prev != nil && !prev.open {
		sp.start = prev.start + prev.dur
	}
	t.root = append(t.root, sp)
	return sp
}

// Record appends an already-finished root span retroactively: start is a
// wall-clock instant captured earlier (its monotonic reading positions the
// span), d its duration. Useful when the span's identity — the campaign key —
// is only known after the timed work ran (submit-time validation).
func (t *Trace) Record(name string, start time.Time, d time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.offsetLocked(start), dur: d, attrs: attrs}
	t.root = append(t.root, sp)
	return sp
}

// offsetLocked converts a wall instant to a trace offset, clamping instants
// captured before the trace epoch to zero.
func (t *Trace) offsetLocked(at time.Time) time.Duration {
	off := at.Sub(t.epoch)
	if off < 0 {
		off = 0
	}
	return off
}

// Finish marks the trace complete. Further spans are still accepted (late
// shard results are harmless); Finish only flips the snapshot's Complete bit.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
}

// Start opens a child span.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now(), open: true, attrs: attrs}
	s.kids = append(s.kids, sp)
	return sp
}

// Record appends an already-finished child span (see Trace.Record).
func (s *Span) Record(name string, start time.Time, d time.Duration, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.offsetLocked(start), dur: d, attrs: attrs}
	s.kids = append(s.kids, sp)
	return sp
}

// SetAttr adds (or appends — duplicate keys render in order) an attribute.
func (s *Span) SetAttr(k string, v any) {
	if s == nil {
		return
	}
	a := A(k, v)
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
}

// End closes the span at the current trace clock. Ending twice keeps the
// first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.open {
		s.open = false
		s.dur = t.now() - s.start
	}
	t.mu.Unlock()
}

// SpanSnapshot is the wire form of one span (GET /campaigns/{id}/trace).
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartMs / DurMs are offsets and lengths in fractional milliseconds on
	// the trace's monotonic clock.
	StartMs  float64           `json:"startMs"`
	DurMs    float64           `json:"durMs"`
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanSnapshot    `json:"children,omitempty"`
}

// TraceSnapshot is the wire form of a campaign trace.
type TraceSnapshot struct {
	Campaign string         `json:"campaign"`
	Start    time.Time      `json:"start"`
	Complete bool           `json:"complete"`
	Spans    []SpanSnapshot `json:"spans"`
}

// Snapshot copies the trace into its wire form under the trace lock.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		Campaign: t.key,
		Start:    t.epoch,
		Complete: t.done,
		Spans:    snapshotSpans(t.root),
	}
}

func snapshotSpans(spans []*Span) []SpanSnapshot {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, len(spans))
	for i, sp := range spans {
		ss := SpanSnapshot{
			Name:     sp.name,
			StartMs:  float64(sp.start) / float64(time.Millisecond),
			DurMs:    float64(sp.dur) / float64(time.Millisecond),
			Open:     sp.open,
			Children: snapshotSpans(sp.kids),
		}
		if len(sp.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				ss.Attrs[a.K] = a.V
			}
		}
		out[i] = ss
	}
	return out
}

// WriteJSON marshals the snapshot (indented — traces are read by humans).
func (ts TraceSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// WriteText renders the snapshot as an indented waterfall: one line per
// span with its offset, duration, depth-indented name and attrs, ordered by
// start offset within each level.
func (ts TraceSnapshot) WriteText(w io.Writer) {
	state := "in flight"
	if ts.Complete {
		state = "complete"
	}
	fmt.Fprintf(w, "campaign %s  (%s, started %s)\n", ts.Campaign, state, ts.Start.Format(time.RFC3339))
	writeSpansText(w, ts.Spans, 0)
}

func writeSpansText(w io.Writer, spans []SpanSnapshot, depth int) {
	ordered := make([]SpanSnapshot, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartMs < ordered[j].StartMs })
	for _, sp := range ordered {
		dur := fmt.Sprintf("%10.3fms", sp.DurMs)
		if sp.Open {
			dur = "      open  "
		}
		fmt.Fprintf(w, "%12.3fms %s  %*s%s", sp.StartMs, dur, 2*depth, "", sp.Name)
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, sp.Attrs[k])
		}
		fmt.Fprintln(w)
		writeSpansText(w, sp.Children, depth+1)
	}
}

// Recorder holds the traces of recent campaigns in a bounded ring: memory is
// O(campaigns retained), independent of campaign size or round count. It is
// goroutine-safe.
type Recorder struct {
	mu     sync.Mutex
	max    int
	traces map[string]*Trace
	order  []string // insertion order for eviction
}

// DefaultTraceCap is the default Recorder ring size.
const DefaultTraceCap = 512

// NewRecorder builds a recorder retaining at most max traces (min 1; <= 0
// means DefaultTraceCap).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultTraceCap
	}
	return &Recorder{max: max, traces: map[string]*Trace{}}
}

// Begin starts a fresh trace for key, replacing any previous one (a
// resubmitted campaign after a failure gets a clean timeline) and evicting
// the oldest finished trace beyond the ring capacity. In-flight traces are
// pinned: a burst of cache-hit probe traces cannot evict a long-running
// campaign's trace mid-execution, so the ring may transiently exceed max by
// the number of concurrently executing campaigns (bounded by the queue).
func (r *Recorder) Begin(key string) *Trace {
	if r == nil {
		return nil
	}
	tr := &Trace{key: key, epoch: time.Now()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.traces[key]; !ok {
		r.order = append(r.order, key)
	}
	r.traces[key] = tr
	for over := len(r.order) - r.max; over > 0; over-- {
		evicted := false
		for i, k := range r.order {
			t := r.traces[k]
			t.mu.Lock()
			pinned := !t.done
			t.mu.Unlock()
			if pinned {
				continue
			}
			delete(r.traces, k)
			r.order = append(r.order[:i], r.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break // everything in flight: keep them all
		}
	}
	return tr
}

// Lookup returns the trace recorded for key, or nil.
func (r *Recorder) Lookup(key string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traces[key]
}

// Len reports how many traces the ring currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}
