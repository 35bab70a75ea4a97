package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// heartbeatStack is a coordinator with one registered worker behind the
// service whose /metrics page renders the fleet.
type heartbeatStack struct {
	c     *Coordinator
	id    string
	fleet http.Handler
	svc   http.Handler
}

func newHeartbeatStack(tb testing.TB) *heartbeatStack {
	tb.Helper()
	c, err := NewCoordinator(CoordinatorConfig{Logger: quiet()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	reg, err := c.register("hb")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 1, Logger: quiet(), Distributor: c})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close(context.Background()) })
	return &heartbeatStack{c: c, id: reg.ID, fleet: c.Handler(), svc: s.Handler()}
}

// post sends body as the worker's heartbeat and returns the status.
func (h *heartbeatStack) post(body []byte) int {
	rec := httptest.NewRecorder()
	h.fleet.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/workers/"+h.id+"/heartbeat", bytes.NewReader(body)))
	return rec.Code
}

// metrics scrapes the service's /metrics page.
func (h *heartbeatStack) metrics() string {
	rec := httptest.NewRecorder()
	h.svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// zeroHistogram reports whether s is the empty snapshot an uninstrumented
// worker has: no bounds, no buckets, no samples.
func zeroHistogram(s obs.HistogramSnapshot) bool {
	return len(s.Bounds) == 0 && len(s.Counts) == 0 && s.Count == 0 && s.Sum == 0
}

// TestHeartbeatDropsBoundlessHistogram: a snapshot whose exec histogram has
// counts but no bounds is not stored, so /metrics never serves its negative
// buckets.
func TestHeartbeatDropsBoundlessHistogram(t *testing.T) {
	h := newHeartbeatStack(t)
	if code := h.post([]byte(`{"metrics":{"inflight":1,"exec":{"bounds":[],"counts":[-3],"count":5,"sum":1}}}`)); code != http.StatusNoContent {
		t.Fatalf("heartbeat answered %d, want 204", code)
	}
	row := h.c.Fleet().Workers[0]
	if !zeroHistogram(row.Exec) {
		t.Errorf("fleet row kept exec %+v, want the zero snapshot", row.Exec)
	}
	if row.Inflight != 1 {
		t.Errorf("fleet row inflight %d, want the snapshot's 1", row.Inflight)
	}
	page := h.metrics()
	if strings.Contains(page, "wffleet_shard_exec_seconds") {
		t.Errorf("/metrics serves the dropped histogram:\n%s", page)
	}
	if _, err := obs.ValidateExposition(strings.NewReader(page)); err != nil {
		t.Errorf("/metrics does not validate: %v", err)
	}
}

// FuzzHeartbeat: arbitrary heartbeat bodies never panic the coordinator,
// every fleet row keeps an exec histogram that is empty or structurally
// sound, and the service's /metrics page always validates.
func FuzzHeartbeat(f *testing.F) {
	h := newHeartbeatStack(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if code := h.post(body); code != http.StatusNoContent {
			t.Fatalf("heartbeat answered %d, want 204", code)
		}
		for _, fw := range h.c.Fleet().Workers {
			if !zeroHistogram(fw.Exec) && !fw.Exec.Valid() {
				t.Fatalf("fleet row %s kept an invalid exec histogram %+v", fw.ID, fw.Exec)
			}
		}
		page := h.metrics()
		if _, err := obs.ValidateExposition(strings.NewReader(page)); err != nil {
			t.Fatalf("/metrics does not validate: %v\n%s", err, page)
		}
	})
}
