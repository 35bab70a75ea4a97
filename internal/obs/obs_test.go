package obs

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	r := NewRecorder(4)
	tr := r.Begin("deadbeef")
	root := tr.Start("phase", A("phase", "sweep"))
	kid := root.Start("shard", A("lo", 0), A("hi", 8))
	kid.SetAttr("worker", "w1")
	kid.End()
	root.Record("merge", time.Now(), 3*time.Millisecond)
	root.End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.Campaign != "deadbeef" || !snap.Complete {
		t.Fatalf("snapshot header wrong: %+v", snap)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "phase" {
		t.Fatalf("root spans: %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 2 {
		t.Fatalf("want 2 children, got %+v", kids)
	}
	if kids[0].Name != "shard" || kids[0].Attrs["worker"] != "w1" || kids[0].Attrs["hi"] != "8" {
		t.Fatalf("shard span: %+v", kids[0])
	}
	if kids[0].Open {
		t.Fatalf("ended span still open")
	}
	if kids[1].Name != "merge" || kids[1].DurMs < 2.9 {
		t.Fatalf("recorded span: %+v", kids[1])
	}

	var text strings.Builder
	snap.WriteText(&text)
	for _, want := range []string{"campaign deadbeef", "complete", "phase", "shard", "merge", "worker=w1"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("waterfall missing %q:\n%s", want, text.String())
		}
	}
}

// TestTraceStartAfterTiles: a span started after an ended one begins exactly
// where it ended, however much later it is opened; after an open one (or
// none) it begins now.
func TestTraceStartAfterTiles(t *testing.T) {
	tr := NewRecorder(1).Begin("k")
	first := tr.StartAfter(nil, "a")
	time.Sleep(2 * time.Millisecond)
	first.End()
	time.Sleep(2 * time.Millisecond)
	second := tr.StartAfter(first, "b")
	third := tr.StartAfter(second, "c")
	second.End()
	third.End()
	s := tr.Snapshot().Spans
	if math.Abs(s[1].StartMs-(s[0].StartMs+s[0].DurMs)) > 1e-9 {
		t.Errorf("b starts at %v ms, want a's end %v ms", s[1].StartMs, s[0].StartMs+s[0].DurMs)
	}
	if s[2].StartMs < s[1].StartMs+2 {
		t.Errorf("c, started after an open span, starts at %v ms, want now (after %v ms)", s[2].StartMs, s[1].StartMs+2)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	sp.SetAttr("k", "v")
	sp.Record("y", time.Now(), time.Second)
	sp.End()
	tr.Record("z", time.Now(), 0)
	tr.StartAfter(sp, "w").End()
	tr.Finish()
	if got := tr.Snapshot(); got.Campaign != "" || len(got.Spans) != 0 {
		t.Fatalf("nil trace snapshot: %+v", got)
	}
	var h *Histogram
	h.Observe(1)
	var m *Metrics
	m.ObserveQueueWait("t", 1)
	m.Write(&strings.Builder{})
	var r *Recorder
	if r.Begin("k") != nil || r.Lookup("k") != nil {
		t.Fatalf("nil recorder not inert")
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(2)
	// Finished traces are the evictable kind; in-flight ones are pinned
	// (see TestRecorderPinsInflightTraces).
	r.Begin("a").Finish()
	r.Begin("b").Finish()
	r.Begin("c").Finish()
	if r.Len() != 2 {
		t.Fatalf("ring len = %d, want 2", r.Len())
	}
	if r.Lookup("a") != nil {
		t.Fatalf("oldest trace not evicted")
	}
	if r.Lookup("c") == nil || r.Lookup("b") == nil {
		t.Fatalf("recent traces missing")
	}
	// Re-begin replaces in place without growing the ring.
	old := r.Lookup("b")
	if r.Begin("b") == old {
		t.Fatalf("Begin reused the old trace")
	}
	if r.Len() != 2 {
		t.Fatalf("ring grew on re-begin: %d", r.Len())
	}
}

func TestContextCarrier(t *testing.T) {
	if o := From(context.Background()); o.Trace != nil || o.Metrics != nil {
		t.Fatalf("empty context carried %+v", o)
	}
	m := NewMetrics()
	tr := NewRecorder(1).Begin("k")
	ctx := With(context.Background(), Obs{Trace: tr, Metrics: m})
	got := From(ctx)
	if got.Trace != tr || got.Metrics != m {
		t.Fatalf("round-trip lost handles: %+v", got)
	}
}

func TestHistogramExposition(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	h.Write(&b, "test_seconds", "help text")
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_sum 56.05`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition invalid: %v", err)
	}
	// Boundary values land in the bucket whose le equals them (le is <=).
	hb := NewHistogram([]float64{1})
	hb.Observe(1)
	var bb strings.Builder
	hb.Write(&bb, "edge", "h")
	if !strings.Contains(bb.String(), `edge_bucket{le="1"} 1`) {
		t.Fatalf("boundary observation not inclusive:\n%s", bb.String())
	}
}

func TestHistogramVecEscaping(t *testing.T) {
	v := NewHistogramVec("tenant", []float64{1})
	weird := `back\slash "quoted" uni-cödé`
	v.Observe(weird, 0.5)
	v.Observe("plain", 2)
	var b strings.Builder
	v.Write(&b, "vec_seconds", "h")
	out := b.String()
	if strings.Count(out, "# TYPE vec_seconds histogram") != 1 {
		t.Fatalf("want one TYPE line:\n%s", out)
	}
	exp, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("vec exposition invalid: %v\n%s", err, out)
	}
	found := false
	for _, s := range exp.Find("vec_seconds_count") {
		if s.Labels["tenant"] == weird {
			found = true
		}
	}
	if !found {
		t.Fatalf("weird tenant label did not round-trip:\n%s", out)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`a\b`, `a\\b`},
		{`a"b`, `a\"b`},
		{"a\nb", `a\nb`},
		{"ünïcode", "ünïcode"},      // unlike %q, non-ASCII passes through
		{"a\"\xff", `a\"` + "\xff"}, // bytewise: an invalid byte stays itself, not U+FFFD
	}
	for _, c := range cases {
		if got := EscapeLabel(c.in); got != c.want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
		back, err := UnescapeLabel(EscapeLabel(c.in))
		if err != nil || back != c.in {
			t.Errorf("round-trip of %q failed: %q, %v", c.in, back, err)
		}
	}
	if _, err := UnescapeLabel(`dangling\`); err == nil {
		t.Errorf("dangling escape accepted")
	}
	if _, err := UnescapeLabel(`bad\t`); err == nil {
		t.Errorf("unknown escape accepted")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "x 1\n",
		"sample before HELP":  "# TYPE x gauge\nx 1\n",
		"HELP after samples":  "# HELP x h\n# TYPE x gauge\nx 1\n# HELP x again\n",
		"duplicate TYPE":      "# HELP x h\n# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"bad value":           "# HELP x h\n# TYPE x gauge\nx pots\n",
		"bad metric name":     "# HELP 9x h\n# TYPE 9x gauge\n9x 1\n",
		"unterminated labels": "# HELP x h\n# TYPE x gauge\nx{a=\"b\" 1\n",
		"non-cumulative buckets": "# HELP x h\n# TYPE x histogram\n" +
			"x_bucket{le=\"1\"} 5\nx_bucket{le=\"+Inf\"} 3\nx_sum 1\nx_count 3\n",
		"+Inf != count": "# HELP x h\n# TYPE x histogram\n" +
			"x_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 2\nx_sum 1\nx_count 3\n",
		"missing +Inf": "# HELP x h\n# TYPE x histogram\n" +
			"x_bucket{le=\"1\"} 1\nx_sum 1\nx_count 1\n",
		"negative buckets and count": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} -3\nh_sum 1\nh_count -3\n",
		"negative bucket": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} -1\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n",
		"negative counter": "# HELP g g\n# TYPE g counter\ng -5\n",
		"negative histogram and counter": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} -3\nh_sum 1\nh_count -3\n# HELP g g\n# TYPE g counter\ng -5\n",
		"negative counter with labels": "# HELP g_total g\n# TYPE g_total counter\ng_total{a=\"b\"} 1\ng_total{a=\"c\"} -0.5\n",
		"label not UTF-8":              "# HELP g g\n# TYPE g gauge\ng{tenant=\"M\xfcller\"} 1\n",
	}
	for name, payload := range cases {
		if _, err := ValidateExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted invalid payload:\n%s", name, payload)
		}
	}
	// A histogram's _sum and a gauge may be negative.
	ok := "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum -4.5\nh_count 2\n" +
		"# HELP g g\n# TYPE g gauge\ng -5\n"
	if _, err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("rejected a negative _sum or gauge: %v", err)
	}
}

func TestBuildInfoAndRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	WriteBuildInfo(&b, "test", time.Now().Add(-2*time.Second))
	WriteRuntimeMetrics(&b, "test")
	exp, err := ValidateExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("build info exposition invalid: %v\n%s", err, b.String())
	}
	bi := exp.Find("test_build_info")
	if len(bi) != 1 || bi[0].Value != 1 || bi[0].Labels["goversion"] == "" {
		t.Fatalf("build_info sample wrong: %+v", bi)
	}
	up := exp.Find("test_uptime_seconds")
	if len(up) != 1 || up[0].Value < 1 {
		t.Fatalf("uptime sample wrong: %+v", up)
	}
	if len(exp.Find("test_go_goroutines")) != 1 {
		t.Fatalf("runtime gauges missing:\n%s", b.String())
	}
}

func TestDebugHandler(t *testing.T) {
	h := DebugHandler("worker", time.Now(), func(w http.ResponseWriter) {
		NewHistogram([]float64{1}).Write(w, "worker_extra_seconds", "h")
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("debug /metrics invalid: %v", err)
	}
	if len(exp.Find("worker_build_info")) != 1 || len(exp.Find("worker_extra_seconds_count")) != 1 {
		t.Fatalf("debug /metrics families missing: %+v", exp.Types)
	}

	resp2, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp2.StatusCode)
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "campaign", "abc")
	if !strings.Contains(b.String(), `"campaign":"abc"`) {
		t.Fatalf("json log missing attr: %s", b.String())
	}
	if _, err := NewLogger(&b, "yaml"); err == nil {
		t.Fatalf("bad format accepted")
	}
	if _, err := NewLogger(&b, ""); err != nil {
		t.Fatalf("default format rejected: %v", err)
	}
}
