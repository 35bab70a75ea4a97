package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	winofault "repro"
)

// testServer stands up the full HTTP stack over a real campaign runner.
func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s, err := New(quiet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

// tinyReq is a real but fast campaign: vgg19 at 16x16, 4 images, 1 round.
func tinyReq() winofault.CampaignRequest {
	return winofault.CampaignRequest{
		Model:     "vgg19",
		Engine:    "winograd",
		InputSize: 16,
		Samples:   4,
		Rounds:    1,
		BERs:      []float64{1e-9, 1e-8},
	}
}

// TestEndToEndCacheHitBitIdentical is the acceptance test: two identical
// POST /campaigns requests return bit-identical sweep accuracies, the
// second marked as a cache hit, and the raw result bytes match exactly.
func TestEndToEndCacheHitBitIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, QueueDepth: 8})
	client, err := winofault.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res1, st1, err := client.Sweep(ctx, tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cached {
		t.Error("first submission claims a cache hit")
	}
	res2, st2, err := client.Sweep(ctx, tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Error("second identical submission is not a cache hit")
	}
	if st1.ID != st2.ID {
		t.Errorf("identical requests got different IDs: %s vs %s", st1.ID, st2.ID)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Errorf("raw result bytes differ:\n%s\n%s", st1.Result, st2.Result)
	}
	if len(res1.Points) != len(tinyReq().BERs) {
		t.Fatalf("sweep has %d points, want %d", len(res1.Points), len(tinyReq().BERs))
	}
	for i := range res1.Points {
		if res1.Points[i] != res2.Points[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, res1.Points[i], res2.Points[i])
		}
	}

	// The cached sweep matches an in-process serial run bit-for-bit: the
	// service layer adds caching, never changes numbers.
	serialReq := tinyReq()
	serialReq.Workers = 1
	serial := runLocal(t, serialReq)
	for i, p := range serial.Points {
		if res1.Points[i] != p {
			t.Errorf("server point %d = %+v, serial run = %+v", i, res1.Points[i], p)
		}
	}

	// GET /campaigns/{id}/result serves the identical bytes verbatim.
	for _, probe := range []int{1, 2} {
		resp, err := http.Get(ts.URL + "/campaigns/" + st1.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(body, []byte(st1.Result)) {
			t.Errorf("result probe %d not byte-identical to the submission result", probe)
		}
	}
}

// runLocal runs req in-process through its plan, as wfsim does.
func runLocal(t *testing.T, req winofault.CampaignRequest) *winofault.CampaignResult {
	t.Helper()
	plan, err := winofault.NewPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultTextFormatMatchesCLI: the ?format=text rendering is the exact
// wfsim accuracy table (shared renderer).
func TestResultTextFormatMatchesCLI(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, QueueDepth: 8})
	client, err := winofault.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := client.Sweep(context.Background(), tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var want bytes.Buffer
	winofault.FormatSweep(&want, res.Points)
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("text rendering diverged from FormatSweep:\n%q\n%q", body, want.Bytes())
	}
}

// TestLayerSensitivityOverHTTP: a Layers request carries the per-layer
// analysis, matching a direct facade run.
func TestLayerSensitivityOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, QueueDepth: 8})
	client, err := winofault.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyReq()
	req.Layers = true
	res, _, err := client.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) == 0 {
		t.Fatal("no layer sensitivities returned")
	}
	direct := runLocal(t, req)
	base, layers := direct.Baseline, direct.Layers
	if res.Baseline != base {
		t.Errorf("baseline %v, facade %v", res.Baseline, base)
	}
	if len(res.Layers) != len(layers) {
		t.Fatalf("layer count %d, facade %d", len(res.Layers), len(layers))
	}
	for i := range layers {
		if res.Layers[i] != layers[i] {
			t.Errorf("layer %d: %+v vs %+v", i, res.Layers[i], layers[i])
		}
	}
}

// TestEventsStreamProgress: the SSE endpoint emits progress events and a
// terminal done event carrying the result.
func TestEventsStreamProgress(t *testing.T) {
	gate := make(chan struct{})
	s := newStubService(t, Config{Jobs: 1, QueueDepth: 8}, func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		<-gate
		for u := 1; u <= 3; u++ {
			progress(0, u, 3)
		}
		return []byte(`{"points":[]}`), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(sweepReq(77))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + j.Key + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(gate)

	var events []string
	var final winofault.CampaignStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, ev)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && len(events) > 0 && events[len(events)-1] == "done" {
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				t.Fatalf("bad done payload %q: %v", data, err)
			}
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("event stream %v did not end with done", events)
	}
	if final.State != winofault.StateDone || string(final.Result) != `{"points":[]}` {
		t.Errorf("final event payload %+v", final)
	}
}

// TestHTTPValidation pins the error surface: bad bodies and unknown
// campaigns are client errors, an overflowing queue is a 503.
func TestHTTPValidation(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 1, QueueDepth: 1})
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 4)
	s.run = func(ctx context.Context, _ string, req winofault.CampaignRequest, progress func(int, int, int)) ([]byte, error) {
		started <- struct{}{}
		<-gate
		return []byte(`{}`), nil
	}

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(`{"bers":[1e-9],"model":`); code != http.StatusBadRequest {
		t.Errorf("truncated body: %d", code)
	}
	if code := post(`{"bers":[1e-9],"engine":"quantum"}`); code != http.StatusBadRequest {
		t.Errorf("bad engine: %d", code)
	}
	if code := post(`{"bers":[1e-9],"typo":true}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d", code)
	}
	// The REVIEW regression: negative numerics used to be keyed, queued, and
	// then panic dataset construction on the worker goroutine, killing the
	// whole process. They must be plain 400s.
	if code := post(`{"bers":[1e-9],"samples":-1}`); code != http.StatusBadRequest {
		t.Errorf("negative samples: %d", code)
	}
	if code := post(`{"bers":[1e-9],"rounds":-2}`); code != http.StatusBadRequest {
		t.Errorf("negative rounds: %d", code)
	}
	if code := post(`{"bers":[1e-9],"protection":{"conv1_1":[2,0]}}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range protection: %d", code)
	}
	resp, err := http.Get(ts.URL + "/campaigns/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign: %d", resp.StatusCode)
	}

	if code := post(`{"bers":[1e-9],"seed":101}`); code != http.StatusAccepted { // running
		t.Errorf("first submission: %d", code)
	}
	<-started
	if code := post(`{"bers":[1e-9],"seed":102}`); code != http.StatusAccepted { // queued
		t.Errorf("second submission: %d", code)
	}
	if code := post(`{"bers":[1e-9],"seed":103}`); code != http.StatusServiceUnavailable {
		t.Errorf("overflow submission: %d", code)
	}
}
