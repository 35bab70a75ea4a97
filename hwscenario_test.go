package winofault

import (
	"context"
	"strings"
	"testing"
)

func scenarioConfig(engine Engine, sc *Scenario) Config {
	cfg := testConfig(engine)
	cfg.Samples = 4
	cfg.Scenario = sc
	return cfg
}

// TestScenarioConfigValidation: New must reject scenarios that cannot run —
// unknown kinds, non-result semantics, geometry outside the array — with
// descriptive errors instead of deep panics.
func TestScenarioConfigValidation(t *testing.T) {
	bad := map[string]Config{
		"unknown kind": scenarioConfig(Winograd, &Scenario{Kind: "cosmic"}),
		"pe outside":   scenarioConfig(Winograd, &Scenario{Kind: "stuckpe", Row: 99}),
		"semantics": func() Config {
			cfg := scenarioConfig(Winograd, &Scenario{Kind: "burst"})
			cfg.Semantics = OperandFlip
			return cfg
		}(),
		"bit vs precision": func() Config {
			cfg := scenarioConfig(Direct, &Scenario{Kind: "stuckpe", Bit: 20})
			cfg.Precision = Int8
			return cfg
		}(),
	}
	for name, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid scenario config", name)
		}
	}
}

// TestScenarioSweepMatchesSweepHW: baking a scenario into the Config and
// overriding per-sweep via SweepHW are the same campaign — bit-identical
// points — and both reject the fault-free BER 0 that the unit-space
// contract would silently skip.
func TestScenarioSweepMatchesSweepHW(t *testing.T) {
	sc := Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24}
	bers := []float64{1e-10, 1e-9}

	baked, err := New(scenarioConfig(Winograd, &sc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := baked.SweepCtx(context.Background(), bers)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := New(scenarioConfig(Winograd, nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := plain.SweepHW(sc, bers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: SweepHW %+v != Config.Scenario %+v", i, got[i], want[i])
		}
	}

	if _, err := baked.SweepCtx(context.Background(), []float64{0, 1e-9}); err == nil ||
		!strings.Contains(err.Error(), "positive") {
		t.Errorf("scenario sweep accepted BER 0 (err %v)", err)
	}
	if _, err := plain.SweepHW(sc, []float64{0}); err == nil {
		t.Error("SweepHW accepted BER 0")
	}
	if _, err := plain.SweepHW(Scenario{Kind: "nope"}, bers); err == nil {
		t.Error("SweepHW accepted an unknown scenario kind")
	}

	// A non-result-semantics system must refuse the per-sweep override too:
	// the injector would otherwise silently ignore the scenario and hand
	// back statistical results labeled as a stuck-at sweep.
	neuronCfg := scenarioConfig(Winograd, nil)
	neuronCfg.Semantics = NeuronFlip
	neuron, err := New(neuronCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := neuron.SweepHW(sc, bers); err == nil ||
		!strings.Contains(err.Error(), "semantics") {
		t.Errorf("SweepHW on a neuron-semantics system returned %v, want a semantics error", err)
	}

	// The error-dropping convenience wrappers must not swallow the
	// validation: they panic instead of returning a fake measurement.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Sweep with BER 0 on a scenario system did not panic")
			}
		}()
		baked.Sweep([]float64{0})
	}()
}

// TestScenarioShardedSweepBitIdentical: the acceptance invariant for
// distribution — a stuck-at-PE sweep sharded over its unit index space by
// independent Systems reduces to the unsharded bytes.
func TestScenarioShardedSweepBitIdentical(t *testing.T) {
	sc := &Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24}
	bers := []float64{1e-10, 1e-9}
	cfg := scenarioConfig(Winograd, sc)
	cfg.Rounds = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.SweepCtx(context.Background(), bers)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(bers, false)
	if err != nil {
		t.Fatal(err)
	}
	// One unit per shard, each on a fresh system as a worker would.
	got := shardedResult(t, plan, func() *Plan { return planFor(t, cfg, bers, false) },
		func(_, total int) [][2]int { return evenSplits(total, total) })
	for i := range want {
		if got.Points[i] != want[i] {
			t.Errorf("point %d: sharded %+v != local %+v", i, got.Points[i], want[i])
		}
	}
}

// TestScenarioNormalized pins the normalization contract the cache key
// depends on: defaults applied, kind-irrelevant fields zeroed.
func TestScenarioNormalized(t *testing.T) {
	got, err := Scenario{Kind: "burst", Row: 7, V: 0.8}.Normalized(Int16)
	if err != nil {
		t.Fatal(err)
	}
	if got != (Scenario{Kind: "burst", Span: 64}) {
		t.Errorf("burst normalized to %+v", got)
	}
	got, err = Scenario{Kind: "voltregion", Row1: 3, Col1: 3, V: 0.75, Span: 9}.Normalized(Int16)
	if err != nil {
		t.Fatal(err)
	}
	if got != (Scenario{Kind: "voltregion", Row1: 3, Col1: 3, V: 0.75}) {
		t.Errorf("voltregion normalized to %+v", got)
	}
	if _, err := (Scenario{Kind: "stuckpe", Bit: 16}).Normalized(Int8); err == nil {
		t.Error("bit 16 accepted for the int8 product register")
	}
	// Any negative sampled coordinate clamps to exactly -1.
	got, err = Scenario{Kind: "stuckpe", Row: -7, Col: -2, Bit: -3}.Normalized(Int16)
	if err != nil {
		t.Fatal(err)
	}
	if got != (Scenario{Kind: "stuckpe", Row: -1, Col: -1, Bit: -1}) {
		t.Errorf("negative coordinates normalized to %+v, want all -1", got)
	}
}
