package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestDistributedTraceTimeline: a campaign sharded across two workers leaves
// a complete trace — dist-path phase spans with worker-side shard execution
// timings stitched in (epoch-stamped), plus the coordinator-side merge —
// while still producing bytes identical to the local path.
func TestDistributedTraceTimeline(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)

	c, _ := fleet(t, CoordinatorConfig{LeaseTTL: 2 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}, 2)
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed bytes differ from local:\n%s\n%s", got, want)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + j.Key + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Complete {
		t.Error("finished distributed campaign's trace is not complete")
	}

	builds, phases, shards, merges := 0, 0, 0, 0
	var walk func(spans []obs.SpanSnapshot, inPhase bool)
	walk = func(spans []obs.SpanSnapshot, inPhase bool) {
		for _, sp := range spans {
			switch sp.Name {
			case "build":
				builds++
				if inPhase || sp.Attrs["model"] == "" || sp.Attrs["engine"] == "" || sp.Attrs["workers"] == "" {
					t.Errorf("build span in a phase %v, or without model/engine/workers attrs: %v", inPhase, sp.Attrs)
				}
			case "phase":
				phases++
				if sp.Attrs["path"] != "dist" {
					t.Errorf("phase path attr %q, want dist", sp.Attrs["path"])
				}
				walk(sp.Children, true)
				continue
			case "shard":
				shards++
				if !inPhase {
					t.Error("shard span outside a phase span")
				}
				if sp.Attrs["worker"] == "" || sp.Attrs["shard"] == "" {
					t.Errorf("shard span lacks worker/shard attrs: %v", sp.Attrs)
				}
				// The epoch attr is the coordinator incarnation stamp (base-36
				// nanos), the same namespace shard IDs embed.
				if ep := sp.Attrs["epoch"]; ep == "" {
					t.Errorf("shard span lacks the epoch attr: %v", sp.Attrs)
				} else if _, err := strconv.ParseInt(ep, 36, 64); err != nil {
					t.Errorf("shard span epoch attr %q is not a base-36 stamp: %v", ep, err)
				}
				if _, err := time.ParseDuration(sp.Attrs["exec"]); err != nil {
					t.Errorf("shard exec attr %q is not a duration: %v", sp.Attrs["exec"], err)
				}
			case "merge":
				merges++
				if !inPhase {
					t.Error("merge span outside a phase span")
				}
			}
			walk(sp.Children, inPhase)
		}
	}
	walk(snap.Spans, false)
	if builds != 1 {
		t.Errorf("%d build spans, want the coordinator's one", builds)
	}
	if phases != 2 {
		t.Errorf("%d phase spans, want 2 (sweep + layers)", phases)
	}
	// ShardUnits=1: the sweep alone has 2 units, layers adds more.
	if shards < 3 {
		t.Errorf("%d shard spans, want at least 3", shards)
	}
	if merges != 2 {
		t.Errorf("%d merge spans, want one per phase", merges)
	}
}
