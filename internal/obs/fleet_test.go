package obs

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramSnapshotConcurrentObserve: snapshots taken while observers are
// running must stay internally consistent — the +Inf cumulative bucket equal
// to _count — because federated snapshots are re-validated (and re-rendered)
// on the coordinator, where a torn read would fail exposition validation for
// the whole fleet page.
func TestHistogramSnapshotConcurrentObserve(t *testing.T) {
	h := NewHistogram(ProbeBuckets)
	const observers, perObserver = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				h.Observe(float64(g*perObserver+i) * 1e-6)
			}
		}(g)
	}
	go func() { wg.Wait(); close(stop) }()
	snaps := 0
	for {
		select {
		case <-stop:
		default:
			s := h.Snapshot()
			if !s.Valid() {
				t.Fatalf("mid-flight snapshot invalid: count %d vs bucket sum", s.Count)
			}
			snaps++
			continue
		}
		break
	}
	if snaps == 0 {
		t.Fatal("no snapshot raced an observer")
	}
	final := h.Snapshot()
	if want := int64(observers * perObserver); final.Count != want {
		t.Fatalf("final snapshot count %d, want %d", final.Count, want)
	}
	if final.Count != h.Count() {
		t.Fatalf("snapshot count %d disagrees with histogram count %d", final.Count, h.Count())
	}
}

// TestHistogramSnapshotQuantile: the interpolated estimate lands inside the
// containing bucket, an empty snapshot reports 0, and overflow samples clamp
// to the largest finite bound.
func TestHistogramSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all samples in the (1,2] bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 1 || q > 2 {
		t.Fatalf("p50 %g outside the containing bucket (1,2]", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty snapshot p50 %g, want 0", q)
	}
	over := NewHistogram([]float64{1, 2})
	over.Observe(100) // +Inf bucket
	if q := over.Snapshot().Quantile(0.99); q != 2 {
		t.Fatalf("overflow p99 %g, want largest finite bound 2", q)
	}
}

// TestHistogramSnapshotValidRejects: structurally broken snapshots (the kind
// a hostile or buggy worker could ship in a heartbeat) must fail validation.
func TestHistogramSnapshotValidRejects(t *testing.T) {
	good := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{1, 2, 3}, Sum: 4, Count: 6}
	if !good.Valid() {
		t.Fatal("well-formed snapshot rejected")
	}
	bad := []HistogramSnapshot{
		{},
		{Bounds: []float64{1, 2}, Counts: []int64{1, 2}, Count: 3},                      // missing overflow bucket
		{Bounds: []float64{2, 1}, Counts: []int64{1, 2, 3}, Count: 6},                   // descending bounds
		{Bounds: []float64{1, 2}, Counts: []int64{1, -2, 3}, Count: 2},                  // negative bucket
		{Bounds: []float64{1, 2}, Counts: []int64{1, 2, 3}, Count: 7},                   // count disagrees
		{Bounds: []float64{1, 1}, Counts: []int64{1, 2, 3}, Count: 6},                   // duplicate bound
		{Bounds: []float64{1}, Counts: []int64{math.MaxInt64, 1}, Count: math.MinInt64}, // sum wraps
	}
	for i, s := range bad {
		if s.Valid() {
			t.Errorf("malformed snapshot %d passed validation: %+v", i, s)
		}
	}
}

// TestHistogramSnapshotWriteSamples: the snapshot renderer produces the same
// strict exposition form the live histogram writer does, including escaped
// hostile label values — the federation path for wffleet_shard_exec_seconds.
func TestHistogramSnapshotWriteSamples(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	h.Observe(0.01)
	h.Observe(2)
	snap := h.Snapshot()

	hostile := "node\nwith \"quotes\" and \\slashes\\ and 蜂"
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# HELP wffleet_shard_exec_seconds test family")
	fmt.Fprintln(&buf, "# TYPE wffleet_shard_exec_seconds histogram")
	snap.WriteSamples(&buf, "wffleet_shard_exec_seconds", Attr{K: "worker", V: hostile}, Attr{K: "id", V: "w-1"})
	snap.WriteSamples(&buf, "wffleet_shard_exec_seconds", Attr{K: "worker", V: "plain"}, Attr{K: "id", V: "w-2"})

	exp, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("snapshot exposition failed strict validation: %v\n%s", err, buf.String())
	}
	found := false
	for _, s := range exp.Find("wffleet_shard_exec_seconds_count") {
		if s.Labels["worker"] == hostile {
			found = true
			if s.Value != float64(snap.Count) {
				t.Errorf("_count %g, want %d", s.Value, snap.Count)
			}
		}
	}
	if !found {
		t.Fatal("hostile worker label did not round-trip through the escaper")
	}
}

// TestRecorderPinsInflightTraces is the regression pin for the eviction bug:
// a full ring of finished cache-hit probe traces must never evict a running
// campaign's trace mid-execution. Uses the default 512-cap ring, per the bug.
func TestRecorderPinsInflightTraces(t *testing.T) {
	r := NewRecorder(0) // DefaultTraceCap
	live := r.Begin("liveliveliveaaa")
	live.Start("phase", A("phase", "sweep"))

	for i := 0; i < DefaultTraceCap+50; i++ {
		probe := r.Begin(fmt.Sprintf("probe%08d", i))
		probe.Record("cache-probe", time.Now(), time.Microsecond, A("hit", true))
		probe.Finish()
	}
	got := r.Lookup("liveliveliveaaa")
	if got == nil {
		t.Fatal("in-flight campaign trace evicted by probe flood")
	}
	if got != live {
		t.Fatal("in-flight trace replaced rather than pinned")
	}
	if n := r.Len(); n != DefaultTraceCap {
		t.Fatalf("ring holds %d traces after flood, want %d", n, DefaultTraceCap)
	}

	// Once finished, the formerly-pinned trace becomes evictable again.
	live.Finish()
	for i := 0; i < DefaultTraceCap+1; i++ {
		tr := r.Begin(fmt.Sprintf("flood%08d", i))
		tr.Finish()
	}
	if r.Lookup("liveliveliveaaa") != nil {
		t.Fatal("finished trace survived a full ring of newer traces")
	}
}

// TestRecorderAllInflightExceedsCapTransiently: when everything is pinned the
// ring grows past max instead of evicting running campaigns, and shrinks back
// once traces finish.
func TestRecorderAllInflightExceedsCapTransiently(t *testing.T) {
	r := NewRecorder(2)
	keys := []string{"aaa1", "bbb2", "ccc3", "ddd4"}
	for _, k := range keys {
		r.Begin(k)
	}
	if n := r.Len(); n != 4 {
		t.Fatalf("ring evicted an in-flight trace: len %d, want 4", n)
	}
	for _, k := range keys {
		r.Lookup(k).Finish()
	}
	r.Begin("eee5").Finish()
	if n := r.Len(); n != 2 {
		t.Fatalf("ring did not shrink back to cap: len %d, want 2", n)
	}
}
