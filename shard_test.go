package winofault

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// planFor builds the campaign plan of (bers, layers) on a fresh system.
func planFor(t *testing.T, cfg Config, bers []float64, layers bool) *Plan {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Plan(bers, layers)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evenSplits cuts [0, units) into the given number of contiguous ranges.
func evenSplits(units, shards int) [][2]int {
	out := make([][2]int, shards)
	for sh := range out {
		out[sh] = [2]int{sh * units / shards, (sh + 1) * units / shards}
	}
	return out
}

// shardedResult reduces plan's campaign from counts computed range by range,
// each range on a fresh plan from remote — shard workers never share state.
// split lists phase i's ranges given its unit total.
func shardedResult(t *testing.T, plan *Plan, remote func() *Plan, split func(i, units int) [][2]int) CampaignResult {
	t.Helper()
	var res CampaignResult
	for i, ph := range plan.Phases() {
		var counts []int
		for _, r := range split(i, ph.Units) {
			part, err := remote().Counts(context.Background(), i, r[0], r[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, part...)
		}
		if err := plan.Reduce(&res, i, counts); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// TestShardedSweepBitIdentical: splitting a sweep's unit index space into
// contiguous shards, computing each shard's counts independently (as remote
// workers would) and reducing the merged counts must reproduce Plan.Run
// bit-for-bit — the invariant the distributed campaign path rests on.
func TestShardedSweepBitIdentical(t *testing.T) {
	bers := []float64{0, 1e-9, 1e-8}
	cfg := testConfig(Winograd)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := *runPlan(t, sys, bers, false)
	plan, err := sys.Plan(bers, false)
	if err != nil {
		t.Fatal(err)
	}
	// BER 0 is exactly fault-free and contributes no units.
	total := plan.Phases()[0].Units
	if total != 2*cfg.Rounds {
		t.Fatalf("sweep phase has %d units, want %d", total, 2*cfg.Rounds)
	}
	remote := func() *Plan { return planFor(t, cfg, bers, false) }
	for _, shards := range []int{1, 2, total} {
		got := shardedResult(t, plan, remote, func(_, units int) [][2]int { return evenSplits(units, shards) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: %+v, want %+v", shards, got, want)
		}
	}
}

// TestShardedLayersBitIdentical extends the invariant to the
// layer-sensitivity phase, which runs at the sweep's middle BER.
func TestShardedLayersBitIdentical(t *testing.T) {
	const ber = 3e-9
	cfg := testConfig(Direct)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := *runPlan(t, sys, []float64{ber}, true)
	// The methods kept for cmd/wfbench's serial replay run the same two
	// phases one by one, and the replay checks its bytes against digests
	// pinned from the service's.
	pts, err := sys.SweepCtx(context.Background(), []float64{ber})
	if err != nil {
		t.Fatal(err)
	}
	base, layers, err := sys.LayerSensitivitiesCtx(context.Background(), ber)
	if err != nil {
		t.Fatal(err)
	}
	if got := (CampaignResult{Points: pts, Baseline: base, Layers: layers}); !reflect.DeepEqual(got, want) {
		t.Errorf("replay methods %+v, want Plan.Run's %+v", got, want)
	}
	plan, err := sys.Plan([]float64{ber}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ph := plan.Phases(); len(ph) != 2 || ph[1].Name != "layers" || ph[1].Units != sys.LayerUnits(ber) {
		t.Fatalf("plan phases %+v, want sweep then %d layer units", ph, sys.LayerUnits(ber))
	}
	remote := func() *Plan { return planFor(t, cfg, []float64{ber}, true) }
	got := shardedResult(t, plan, remote, func(i, units int) [][2]int {
		if i == 0 {
			return evenSplits(units, 1)
		}
		return evenSplits(units, 2)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded layers %+v, want %+v", got, want)
	}
}

// TestLayersPhaseMatchesCampaignsAlone: the layers phase runs each
// per-layer campaign as a delta against the baseline's rounds, so every
// count of the phase — computed whole, or in shards with and without the
// baseline's units, at Workers 1, 2 and 3 — must equal that campaign run
// alone in its own batch, under the statistical model with a protection
// plan and under a stuck-PE scenario.
func TestLayersPhaseMatchesCampaignsAlone(t *testing.T) {
	stuck := scenarioConfig(Winograd, &Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 18})
	stuck.Rounds = 2
	statistical := testConfig(Direct)
	statistical.Rounds = 2
	for _, c := range []struct {
		name string
		cfg  Config
		ber  float64
		prot map[string][2]float64
	}{
		{"protected", statistical, 3e-9, map[string][2]float64{"conv1_2": {0.5, 0}, "conv3_1": {1, 1}, "fc1": {0, 0.7}}},
		{"stuck PE", stuck, 1e-9, nil},
	} {
		var alone [][]int
		for _, workers := range []int{1, 2, 3} {
			cfg := c.cfg
			cfg.Workers = workers
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SetProtection(c.prot); err != nil {
				t.Fatal(err)
			}
			plan, err := sys.Plan([]float64{c.ber}, true)
			if err != nil {
				t.Fatal(err)
			}
			cs := faultsim.LayerCampaigns(sys.conv, c.ber, sys.opts)
			if alone == nil {
				for i := range cs {
					alone = append(alone, sys.runner.UnitCounts(context.Background(), cs[i:i+1], cfg.Rounds, 0, cfg.Rounds, nil))
				}
				distinct := map[int]bool{}
				for _, counts := range alone {
					distinct[counts[0]+counts[1]] = true
				}
				if len(distinct) < 2 {
					t.Fatalf("%s: every layer campaign agrees with the baseline, so this test shows nothing", c.name)
				}
			}
			units := plan.Phases()[1].Units
			for _, r := range [][2]int{{0, units}, {cfg.Rounds, units}, {1, units / 2}, {units/2 + 1, units}} {
				counts, err := plan.Counts(context.Background(), 1, r[0], r[1], nil)
				if err != nil {
					t.Fatal(err)
				}
				for k, count := range counts {
					u := r[0] + k
					if want := alone[u/cfg.Rounds][u%cfg.Rounds]; count != want {
						t.Errorf("%s, workers=%d, units [%d, %d): unit %d counts %d, alone %d", c.name, workers, r[0], r[1], u, count, want)
					}
				}
			}
		}
	}
}

// TestShardRangeAndCountErrors: wire-facing phase, range, length and count
// value mistakes are errors, never panics.
func TestShardRangeAndCountErrors(t *testing.T) {
	cfg := testConfig(Direct)
	plan := planFor(t, cfg, []float64{1e-9}, true)
	ctx := context.Background()
	total := plan.Phases()[0].Units
	if _, err := plan.Counts(ctx, 0, 0, total+1, nil); err == nil {
		t.Error("oversized range did not error")
	}
	if _, err := plan.Counts(ctx, 0, -1, 0, nil); err == nil {
		t.Error("negative range did not error")
	}
	if _, err := plan.Counts(ctx, 1, 5, 2, nil); err == nil {
		t.Error("inverted layer range did not error")
	}
	if _, err := plan.Counts(ctx, 2, 0, 0, nil); err == nil {
		t.Error("unknown phase did not error")
	}
	var res CampaignResult
	if err := plan.Reduce(&res, 0, make([]int, total+2)); err == nil {
		t.Error("mismatched counts length did not error")
	}
	if err := plan.Reduce(&res, 1, nil); err == nil {
		t.Error("empty layer counts did not error")
	}
	for _, bad := range []int{-1, cfg.Samples + 1} {
		if err := plan.CheckCounts(0, 0, 1, []int{bad}); err == nil {
			t.Errorf("count %d outside [0, %d] did not error", bad, cfg.Samples)
		}
	}
	if err := plan.CheckCounts(0, 0, 1, []int{cfg.Samples}); err != nil {
		t.Errorf("count %d (every sample agrees) rejected: %v", cfg.Samples, err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Plan(nil, true); err == nil {
		t.Error("layer phase without a BER did not error")
	}
}

// TestPlanRunProgressSpansAndCancel: Run reports progress per phase, traces
// each phase as a path=local span on the context's trace, and a canceled
// context fails the run with ctx.Err() and an err attribute on the span.
func TestPlanRunProgressSpansAndCancel(t *testing.T) {
	plan := planFor(t, testConfig(Direct), []float64{1e-9}, true)
	var mu sync.Mutex
	last := map[int][2]int{}
	tr := obs.NewRecorder(4).Begin("k")
	ctx := obs.With(context.Background(), obs.Obs{Trace: tr})
	if _, err := plan.Run(ctx, func(phase, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done > last[phase][0] {
			last[phase] = [2]int{done, total}
		}
	}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot().Spans
	for i, ph := range plan.Phases() {
		if last[i] != [2]int{ph.Units, ph.Units} {
			t.Errorf("phase %d progress ended at %v, want %d of %d", i, last[i], ph.Units, ph.Units)
		}
		if i >= len(spans) {
			t.Fatalf("%d spans for %d phases", len(spans), len(plan.Phases()))
		}
		want := map[string]string{"phase": ph.Name, "path": "local", "units": fmt.Sprint(ph.Units)}
		if sp := spans[i]; sp.Name != "phase" || !reflect.DeepEqual(sp.Attrs, want) {
			t.Errorf("span %d: %s %v, want phase %v", i, sp.Name, sp.Attrs, want)
		}
	}

	canceled, cancel := context.WithCancel(obs.With(context.Background(), obs.Obs{Trace: tr}))
	cancel()
	if _, err := plan.Run(canceled, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v, want context.Canceled", err)
	}
	spans = tr.Snapshot().Spans
	if sp := spans[len(spans)-1]; sp.Attrs["err"] == "" {
		t.Errorf("canceled phase span %v carries no err attribute", sp.Attrs)
	}
}
