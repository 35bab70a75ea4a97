package winofault

import (
	"fmt"
	"testing"
)

func deltaOff() *bool { off := false; return &off }
func deltaOn() *bool  { on := true; return &on }

// TestDeltaMatchesFullExecution is the facade-level acceptance fixture for
// delta execution: across the whole model zoo, both engines and the golden-
// fixture BERs, a system running the fault-cone delta path returns sweep
// points bit-identical to one forced through full execution. Worker-count
// invariance of the delta path is pinned separately below, so here each
// model/engine pair runs one representative worker count.
func TestDeltaMatchesFullExecution(t *testing.T) {
	bers := []float64{3e-11, 3e-10, 1e-9}
	workersFor := map[string]int{"vgg19": 1, "resnet50": 2, "densenet169": 8, "googlenet": 4}
	for model, workers := range workersFor {
		for _, engine := range []Engine{Direct, Winograd} {
			t.Run(fmt.Sprintf("%s/%v", model, engine), func(t *testing.T) {
				cfg := Config{
					Model: model, Engine: engine, WidthMult: 0.125, InputSize: 16,
					Samples: 8, Rounds: 2, Seed: 3, Workers: workers,
				}
				cfg.DeltaExec = deltaOff()
				want := sweepWith(t, cfg, bers)
				cfg.DeltaExec = nil // the default: delta on
				got := sweepWith(t, cfg, bers)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("point %d: delta %+v != full %+v (bit-identity broken)", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestDeltaWorkerCountInvariant: the delta path keeps the scheduler's
// bit-identical-for-any-worker-count guarantee — the shared golden plane
// and per-worker contexts cannot leak state between units.
func TestDeltaWorkerCountInvariant(t *testing.T) {
	bers := []float64{3e-10, 1e-9}
	var want []Point
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig(Winograd)
		cfg.Rounds = 2
		cfg.Workers = workers
		cfg.DeltaExec = deltaOn()
		got := sweepWith(t, cfg, bers)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: point %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDeltaShardedSweepBitIdentical: unit-range shards computed by delta-
// enabled systems must merge to the bytes a full-execution system produces
// locally, so delta and non-delta workers can serve the same distributed
// campaign.
func TestDeltaShardedSweepBitIdentical(t *testing.T) {
	bers := []float64{1e-9, 1e-8}
	cfg := testConfig(Winograd)
	cfg.Rounds = 2
	cfg.DeltaExec = deltaOff()
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runPlan(t, full, bers, false).Points
	plan, err := full.Plan(bers, false)
	if err != nil {
		t.Fatal(err)
	}
	remoteCfg := cfg
	remoteCfg.DeltaExec = nil // shard workers run the delta default
	got := shardedResult(t, plan, func() *Plan { return planFor(t, remoteCfg, bers, false) },
		func(_, total int) [][2]int {
			return [][2]int{{0, total / 3}, {total / 3, total / 2}, {total / 2, total}}
		})
	for i := range want {
		if got.Points[i] != want[i] {
			t.Errorf("point %d: delta-sharded %+v != full local %+v", i, got.Points[i], want[i])
		}
	}
}

// TestDeltaMatchesFullScenario extends bit-identity to hardware-located
// campaigns: the stuck-PE and voltage-region event generators drive the same
// dirty-set machinery as the statistical sampler, so delta on/off must agree
// on every point.
func TestDeltaMatchesFullScenario(t *testing.T) {
	bers := []float64{1e-10, 1e-9}
	for _, sc := range []Scenario{
		{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24},
		{Kind: "voltregion", Row0: 0, Col0: 0, Row1: 3, Col1: 3, V: 0.75},
	} {
		cfg := scenarioConfig(Winograd, &sc)
		cfg.Rounds = 2
		cfg.DeltaExec = deltaOff()
		want := sweepWith(t, cfg, bers)
		cfg.DeltaExec = nil
		got := sweepWith(t, cfg, bers)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s point %d: delta %+v != full %+v", sc.Kind, i, got[i], want[i])
			}
		}
	}
}
