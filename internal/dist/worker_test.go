package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/service"
)

// inProcess serves every request of a client on the calling goroutine, so a
// handler may read the state of the worker loop that sent the request
// without racing it.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestWorkerReleasesLeftPlans: a worker keeps a plan's working state while
// more of its shards may come. Leased two campaigns' shards interleaved
// (A's sweep, B's sweep, A's layers, B's layers), it keeps A's state across
// B's sweep shard, releases A once it leaves A's last phase for B's, and
// releases every plan on a 204.
func TestWorkerReleasesLeftPlans(t *testing.T) {
	reqA, reqB := tinyReq(), tinyReq()
	reqB.Seed = 2
	keyA, err := service.Key(reqA)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := service.Key(reqB)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var w *fleetWorker
	// phases maps each cached campaign to the phase of its last shard, -1
	// once released.
	phases := func() map[string]int {
		out := map[string]int{}
		for _, e := range w.plans {
			out[e.key] = e.phase
		}
		return out
	}
	// Each lease answers the next shard and checks the worker's plans after
	// the one before it; phase 1 is the layers phase, whose units [0, 2) are
	// the baseline's round and the first layer's.
	steps := []struct {
		key   string
		req   winofault.CampaignRequest
		phase int
		want  map[string]int // after the previous shard
	}{
		{keyA, reqA, 0, map[string]int{}},
		{keyB, reqB, 0, map[string]int{keyA: 0}},
		{keyA, reqA, 1, map[string]int{keyA: 0, keyB: 0}},
		{keyB, reqB, 1, map[string]int{keyA: 1, keyB: 0}},
		{"", reqA, 0, map[string]int{keyA: -1, keyB: 1}}, // a 204
		{"", reqA, 0, map[string]int{keyA: -1, keyB: -1}},
	}
	leases := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(registerResponse{ID: "w-1", LeaseMillis: time.Minute.Milliseconds(), PollMillis: 10})
	})
	mux.HandleFunc("POST /workers/{id}/heartbeat", func(rw http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /workers/{id}/result", func(rw http.ResponseWriter, r *http.Request) {
		var res ShardResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil || res.Error != "" || len(res.Counts) != 2 {
			t.Errorf("shard %s: result %+v (%v)", res.Task, res, err)
		}
	})
	mux.HandleFunc("POST /workers/{id}/lease", func(rw http.ResponseWriter, r *http.Request) {
		st := steps[leases]
		if got := phases(); !maps.Equal(got, st.want) {
			t.Errorf("before lease %d: plans at phases %v, want %v", leases+1, got, st.want)
		}
		if leases++; leases == len(steps) {
			cancel()
		}
		if st.key == "" {
			rw.WriteHeader(http.StatusNoContent)
			return
		}
		json.NewEncoder(rw).Encode(ShardTask{ID: fmt.Sprint(leases), Key: st.key, Req: st.req, Phase: st.phase, Lo: 0, Hi: 2})
	})
	client := &http.Client{Transport: inProcess{mux}}
	w = &fleetWorker{
		cfg:  WorkerConfig{Workers: 1, Logger: quiet()},
		base: &url.URL{Scheme: "http", Host: "fleet.invalid"},
		hc:   client,
		hbc:  client,
	}
	if err := w.session(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("worker session ended with %v", err)
	}
	if leases != len(steps) {
		t.Errorf("the worker sent %d lease requests, want %d", leases, len(steps))
	}
}
