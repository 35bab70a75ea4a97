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
		// The injector would silently ignore scenario events under neuron
		// semantics and hand back statistical results labeled as a scenario.
		"neuron semantics": func() Config {
			cfg := scenarioConfig(Winograd, &Scenario{Kind: "stuckpe", Bit: 24})
			cfg.Semantics = NeuronFlip
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

// TestScenarioRunMatchesWireRequest: a scenario in the Config and the same
// scenario on the wire (NewPlan) are the same campaign — bit-identical
// points — and every way to run one rejects the fault-free BER 0 that the
// unit-space contract would silently skip.
func TestScenarioRunMatchesWireRequest(t *testing.T) {
	sc := Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24}
	bers := []float64{1e-10, 1e-9}
	sys, err := New(scenarioConfig(Winograd, &sc))
	if err != nil {
		t.Fatal(err)
	}
	want := runPlan(t, sys, bers, false).Points

	req := CampaignRequest{Engine: "winograd", InputSize: 16, Samples: 4, Rounds: 1, Seed: 3,
		BERs: bers, Scenario: &sc}
	plan, err := NewPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Points[i] != want[i] {
			t.Errorf("point %d: wire request %+v != Config.Scenario %+v", i, got.Points[i], want[i])
		}
	}

	if _, err := sys.Plan([]float64{0, 1e-9}, false); err == nil ||
		!strings.Contains(err.Error(), "positive") {
		t.Errorf("scenario plan accepted BER 0 (err %v)", err)
	}
	req.BERs = []float64{0}
	if _, err := NewPlan(req); err == nil {
		t.Error("NewPlan accepted a scenario request at BER 0")
	}
	if _, err := sys.SweepCtx(context.Background(), []float64{0}); err == nil {
		t.Error("SweepCtx accepted BER 0 on a scenario system")
	}
	if _, _, err := sys.LayerSensitivitiesCtx(context.Background(), 0); err == nil {
		t.Error("LayerSensitivitiesCtx accepted BER 0 on a scenario system")
	}
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
	want := runPlan(t, sys, bers, false).Points
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
