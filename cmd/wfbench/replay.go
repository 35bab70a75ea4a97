package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	winofault "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

// newSystem builds the campaign's system the way the service's local path
// does, with the given faultsim worker count.
func newSystem(req winofault.CampaignRequest, workers int) (*winofault.System, error) {
	cfg, err := req.SystemConfig()
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	sys, err := winofault.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.SetProtection(req.Protection); err != nil {
		return nil, err
	}
	return sys, nil
}

// execute runs req's phases on sys in the service's order and returns the
// result bytes the service would cache. phase, when set, is called as each
// phase starts and returns the function to call when it ends.
func execute(ctx context.Context, sys *winofault.System, req winofault.CampaignRequest, phase func(name string) func()) ([]byte, error) {
	if phase == nil {
		phase = func(string) func() { return func() {} }
	}
	end := phase("sweep")
	pts, err := sys.SweepCtx(ctx, req.BERs)
	end()
	if err != nil {
		return nil, err
	}
	res := winofault.CampaignResult{Points: pts}
	if req.Layers {
		end := phase("layers")
		res.Baseline, res.Layers, err = sys.LayerSensitivitiesCtx(ctx, req.BERs[len(req.BERs)/2])
		end()
		if err != nil {
			return nil, err
		}
	}
	return json.Marshal(res)
}

// unitSample is one Monte-Carlo unit of a serial replay: its wall time and
// the kernel work done inside it.
type unitSample struct {
	start  time.Time
	dur    time.Duration
	kernel kernelCounts
}

type replayPhase struct {
	name  string
	start time.Time
	dur   time.Duration
	units []unitSample
}

// replayed is one campaign replayed serially through the facade.
type replayed struct {
	id        string
	start     time.Time
	newDur    time.Duration
	scaledMul int64 // multiplications of one image's forward pass
	phases    []replayPhase
}

// replay re-runs the given campaigns one at a time through the facade with
// one faultsim worker: it times winofault.New, then each phase, and splits
// phases into units at the facade's progress callbacks, snapshotting the
// kernel counters at each one. Result bytes are checked against the pinned
// digests like the service's.
func replay(ctx context.Context, w workload, reqs []winofault.CampaignRequest, models []string, digests digestTable, kc *counting) ([]replayed, error) {
	var out []replayed
	for i, req := range reqs {
		id, err := service.Key(req)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("replay of %s seed %d", models[i], req.Seed)
		rc := replayed{id: id, start: time.Now()}
		sys, err := newSystem(req, 1)
		rc.newDur = time.Since(rc.start)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rc.scaledMul, _, _, _ = sys.OpCounts()

		var cur *replayPhase
		var last time.Time
		var lastK kernelCounts
		sys.OnProgress(func(done, total int) {
			now, k := time.Now(), kc.snapshot()
			if done > 0 {
				cur.units = append(cur.units, unitSample{start: last, dur: now.Sub(last), kernel: k.sub(lastK)})
			}
			last, lastK = now, k
		})
		data, err := execute(ctx, sys, req, func(name string) func() {
			cur = &replayPhase{name: name, start: time.Now()}
			return func() {
				cur.dur = time.Since(cur.start)
				rc.phases = append(rc.phases, *cur)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if got, pinned := digest(data), digests.get(w.name, models[i], req.Seed); got != pinned {
			return nil, fmt.Errorf("%s: result digest %s, pinned %s", name, got, pinned)
		}
		out = append(out, rc)
	}
	return out, nil
}

// spanFile is the content of DIR/<workload>.trace.json: the service's span
// timelines of the traced misses, and the benchmark's own spans of the
// serial replay (system construction, phases, and units with their kernel
// work).
type spanFile struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Campaigns []tracedCampaign    `json:"campaigns"`
	Replay    []obs.TraceSnapshot `json:"replay"`
}

type tracedCampaign struct {
	Model     string            `json:"model"`
	LatencyMs float64           `json:"latencyMs"`
	Trace     obs.TraceSnapshot `json:"trace"`
}

func writeSpans(path string, w workload, seed uint64, traced phase, reps []replayed) error {
	f := spanFile{Workload: w.name, Seed: seed}
	for _, s := range traced.samples {
		if s.trace != nil {
			f.Campaigns = append(f.Campaigns, tracedCampaign{Model: s.model, LatencyMs: ms(s.latency), Trace: *s.trace})
		}
	}
	for _, rc := range reps {
		f.Replay = append(f.Replay, rc.snapshot())
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// snapshot renders a replayed campaign in the service's trace wire form.
func (rc replayed) snapshot() obs.TraceSnapshot {
	off := func(t time.Time) float64 { return ms(t.Sub(rc.start)) }
	spans := []obs.SpanSnapshot{{Name: "winofault.New", DurMs: ms(rc.newDur)}}
	for _, ph := range rc.phases {
		sp := obs.SpanSnapshot{
			Name: "phase", StartMs: off(ph.start), DurMs: ms(ph.dur),
			Attrs: map[string]string{"phase": ph.name, "path": "replay", "units": fmt.Sprint(len(ph.units))},
		}
		for _, u := range ph.units {
			sp.Children = append(sp.Children, obs.SpanSnapshot{
				Name: "unit", StartMs: off(u.start), DurMs: ms(u.dur),
				Attrs: map[string]string{
					"macs":       fmt.Sprint(u.kernel.macs()),
					"kernelMs":   fmt.Sprint(ms(u.kernel.busy)),
					"transforms": fmt.Sprint(u.kernel.transforms),
				},
			})
		}
		spans = append(spans, sp)
	}
	return obs.TraceSnapshot{Campaign: rc.id, Start: rc.start, Complete: true, Spans: spans}
}
