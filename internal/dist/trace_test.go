package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestDistributedTraceTimeline: a campaign sharded across two workers leaves
// a complete trace — dist-path phase spans with worker-side shard execution
// timings stitched in (epoch-stamped), plus the coordinator-side merge —
// while still producing bytes identical to the local path. The coordinator
// plans it from geometry, so the trace holds no build span, and the phase
// spans tile the campaign with every shard under its own phase.
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
	if builds != 0 {
		t.Errorf("%d build spans, want none: the fleet ran every shard", builds)
	}
	checkPhaseSpans(t, snap.Spans)
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

// checkPhaseSpans checks the phase spans of a dist campaign's trace: each
// opens exactly where the one before it ended, and each shard span is a
// child of its own phase's span (shard IDs carry the phase index).
func checkPhaseSpans(t *testing.T, spans []obs.SpanSnapshot) {
	t.Helper()
	var phases []obs.SpanSnapshot
	for _, sp := range spans {
		if sp.Name == "phase" {
			phases = append(phases, sp)
		}
	}
	for i, ph := range phases {
		if i > 0 {
			if prev := phases[i-1]; math.Abs(ph.StartMs-(prev.StartMs+prev.DurMs)) > 1e-6 {
				t.Errorf("phase %d starts at %v ms, want phase %d's end at %v ms", i, ph.StartMs, i-1, prev.StartMs+prev.DurMs)
			}
		}
		for _, sh := range ph.Children {
			if sh.Name != "shard" {
				continue
			}
			if parts := strings.Split(sh.Attrs["shard"], "."); len(parts) < 2 || parts[1] != strconv.Itoa(i) {
				t.Errorf("shard %s sits under phase %d", sh.Attrs["shard"], i)
			}
		}
	}
}

// buildSpans counts a trace's build spans, and those inside a phase span.
func buildSpans(spans []obs.SpanSnapshot, inPhase bool) (builds, nested int) {
	for _, sp := range spans {
		if sp.Name == "build" {
			builds++
			if inPhase {
				nested++
			}
		}
		b, n := buildSpans(sp.Children, inPhase || sp.Name == "phase")
		builds, nested = builds+b, nested+n
	}
	return builds, nested
}

// TestLayersShardsMergeDuringSweep: a campaign queues every phase's shards
// at once, so with ShardUnits 1 a worker can merge the whole layers phase
// while a sweep shard is still out. The service still sees progress in
// phase order — (batch, done) never goes backwards, and the layers phase
// first reports its merged count — and bills every unit once; the early
// shard spans sit under the layers phase, before its start.
func TestLayersShardsMergeDuringSweep(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)
	c, url := fleet(t, CoordinatorConfig{LeaseTTL: 30 * time.Second, Poll: 10 * time.Millisecond, ShardUnits: 1}, 0)
	rw := newRawWorker(t, url, "hoarder")
	exec := &fleetWorker{cfg: WorkerConfig{Workers: 1, Logger: quiet()}}
	d := &progressLog{Coordinator: c}
	s, err := service.New(service.Config{Jobs: 1, QueueDepth: 4, Logger: quiet(), Distributor: d})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	total := planUnits(t, req)
	held := rw.leaseOne(5 * time.Second)
	if held.Phase != PhaseSweep {
		t.Fatalf("first lease %+v, want a sweep shard", held)
	}
	layers := 0
	for n := 1; n < total; n++ {
		task := rw.leaseOne(5 * time.Second)
		if task.Phase == PhaseLayers {
			layers += task.Hi - task.Lo
		}
		rw.report(t, exec.execute(context.Background(), *task))
	}
	rw.report(t, exec.execute(context.Background(), *held))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bytes differ from local:\n%s\n%s", got, want)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	last := [3]int{0, -1, 0}
	firstLayers := [3]int{-1}
	for _, r := range d.reports {
		if r[0] < last[0] || (r[0] == last[0] && r[1] < last[1]) {
			t.Errorf("progress went backwards: %v after %v", r, last)
		}
		if r[0] == PhaseLayers && firstLayers[0] < 0 {
			firstLayers = r
		}
		last = r
	}
	if firstLayers != [3]int{PhaseLayers, layers, layers} {
		t.Errorf("layers phase first reported %v, want its merged count %d of %d", firstLayers, layers, layers)
	}
	var served int64
	for _, ts := range s.Stats().Tenants {
		served += ts.ServedUnits
	}
	if served != int64(total) {
		t.Errorf("served units %d, want %d", served, total)
	}
	spans := d.trace.Snapshot().Spans
	checkPhaseSpans(t, spans)
	for _, ph := range spans {
		if ph.Name != "phase" || ph.Attrs["phase"] != "layers" {
			continue
		}
		for _, sh := range ph.Children {
			if sh.Name == "shard" && sh.StartMs >= ph.StartMs {
				t.Errorf("layers shard %s leased at %v ms, after its phase opened at %v ms", sh.Attrs["shard"], sh.StartMs, ph.StartMs)
			}
		}
	}
	if b, _ := buildSpans(spans, false); b != 0 {
		t.Errorf("%d build spans, want none", b)
	}
}
