package winofault

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// TestGoldenAccuracyFixture pins campaign accuracies for every event source
// the platform has: statistical result flips and operand flips for all four
// models and both engines, and each hardware-located scenario kind on vgg19
// for both engines. The result-flip rows were measured before the
// allocation-free hot-path refactor (ExecContext scratch arenas, blocked
// winograd kernels, sorted event cursors); the operand and scenario rows
// were measured before the engines' fault replay moved onto internal/fault's
// shared corruption rule. The engines' determinism contract makes these
// bit-exact: any arithmetic reordering, stale-scratch leak, event-routing
// change or change to how an event corrupts an operation shows up here as a
// hard failure, for every Workers value — and, since the kernel seam, for
// every compute backend and with delta execution on or off: all four
// (backend, delta) combinations must land on the same fixture values.
func TestGoldenAccuracyFixture(t *testing.T) {
	type row struct {
		name string
		cfg  Config // model, engine and event source; the rest is shared
		bers []float64
		want []float64
	}
	var rows []row
	resultBERs := []float64{3e-11, 3e-10, 1e-9}
	for model, byEngine := range map[string]map[Engine][]float64{
		"vgg19":       {Direct: {1, 0.875, 0.9375}, Winograd: {1, 0.9375, 0.875}},
		"resnet50":    {Direct: {0.125, 0, 0}, Winograd: {0.375, 0, 0}},
		"densenet169": {Direct: {0.25, 0, 0}, Winograd: {0.4375, 0, 0.0625}},
		"googlenet":   {Direct: {0.9375, 0.625, 0.625}, Winograd: {0.8125, 0.8125, 0.75}},
	} {
		for engine, want := range byEngine {
			rows = append(rows, row{fmt.Sprintf("%s/%v", model, engine),
				Config{Model: model, Engine: engine}, resultBERs, want})
		}
	}
	// Winograd result flips at the BERs of the paper's high-BER curves, for
	// both tiles. Most tiles of a round carry events here, so these rows pin
	// the per-chain fault replay (faulty input transforms feeding the
	// backend Hadamard, replayed chains, replayed output transforms) far
	// harder than the low-BER rows. They were measured with the whole-tile
	// replay that preceded it. resnet50 and densenet169 saturate at 0 at
	// these BERs, so they would pin nothing. Skipping output-transform replay
	// moves none of the int16 rows (an output-transform add flip moves an
	// output by at most 2^(W-1) accumulator LSBs); the int8 row catches it.
	highBERs := []float64{1e-8, 3e-8, 1e-7}
	for _, hb := range []struct {
		tile string
		cfg  Config
		want []float64
	}{
		{"F2", Config{Model: "vgg19"}, []float64{0.625, 0.4375, 0.4375}},
		{"F4", Config{Model: "vgg19", TileF4: true}, []float64{0.6875, 0.5, 0.625}},
		{"F2", Config{Model: "googlenet"}, []float64{0.6875, 0.3125, 0.125}},
		{"F4", Config{Model: "googlenet", TileF4: true}, []float64{0.6875, 0.25, 0.125}},
		{"F2/int8", Config{Model: "vgg19", Precision: Int8}, []float64{0.375, 0.1875, 0}},
	} {
		cfg := hb.cfg
		cfg.Engine = Winograd
		rows = append(rows, row{fmt.Sprintf("%s/%v/%s", cfg.Model, Winograd, hb.tile), cfg, highBERs, hb.want})
	}
	// Direct result flips at the same BERs. Most outputs a round touches
	// carry events here, several per MAC chain, so these rows pin the direct
	// engine's replay of dense outputs (clean MAC runs summed between event
	// steps) and the radix-sorted event cursor. googlenet's 1×1 inception
	// layers make it the only direct row whose dense rounds replay 1×1
	// outputs; resnet50 and densenet169 read 0 at these BERs. They were
	// measured with the per-MAC replay and the comparison sort that
	// preceded both.
	for model, want := range map[string][]float64{
		"vgg19":     {0.3125, 0.4375, 0.5625},
		"googlenet": {0.625, 0.1875, 0.3125},
	} {
		rows = append(rows, row{fmt.Sprintf("%s/%v/highber", model, Direct),
			Config{Model: model, Engine: Direct}, highBERs, want})
	}
	// Operand flips reach the engines' operand paths, which result flips
	// never touch: swapping the two operands of a multiplication moves at
	// least one point of every row. Operand and scenario rows share this
	// higher BER range, where operand flips start to cost accuracy.
	bers := []float64{3e-10, 1e-9, 1e-8}
	for model, byEngine := range map[string]map[Engine][]float64{
		"vgg19":       {Direct: {0.9375, 1, 0.8125}, Winograd: {1, 1, 0.875}},
		"resnet50":    {Direct: {0.3125, 0, 0}, Winograd: {0.3125, 0.0625, 0}},
		"densenet169": {Direct: {0.1875, 0, 0}, Winograd: {0.3125, 0.125, 0.0625}},
		"googlenet":   {Direct: {1, 0.6875, 0.625}, Winograd: {0.9375, 0.9375, 0.6875}},
	} {
		for engine, want := range byEngine {
			rows = append(rows, row{fmt.Sprintf("%s/%v/operand", model, engine),
				Config{Model: model, Engine: engine, Semantics: OperandFlip}, bers, want})
		}
	}
	// Scenario events come from internal/hwfault rather than the statistical
	// sampler; each configuration is chosen so that reading its events as
	// operand flips instead of result flips changes every row.
	for _, sc := range []struct {
		cfg  Config
		want map[Engine][]float64
	}{
		{Config{Scenario: &Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 18}},
			map[Engine][]float64{Direct: {1, 1, 1}, Winograd: {0.25, 0.25, 0.25}}},
		{Config{Precision: Int8, Seed: 5, Scenario: &Scenario{Kind: "burst", Span: 1024}},
			map[Engine][]float64{Direct: {0.375, 0.375, 0.375}, Winograd: {0.5625, 0.5625, 0.5625}}},
		{Config{Scenario: &Scenario{Kind: "voltregion", Row1: 3, Col1: 3, V: 0.72}},
			map[Engine][]float64{Direct: {0.3125, 0.3125, 0.3125}, Winograd: {0.375, 0.375, 0.375}}},
	} {
		for engine, want := range sc.want {
			cfg := sc.cfg
			cfg.Model, cfg.Engine = "vgg19", engine
			rows = append(rows, row{fmt.Sprintf("vgg19/%v/%s", engine, sc.cfg.Scenario.Kind), cfg, bers, want})
		}
	}
	for _, r := range rows {
		for _, backend := range []string{"scalar", "blocked"} {
			for _, delta := range []bool{true, false} {
				d := delta
				t.Run(fmt.Sprintf("%s/%s/delta=%t", r.name, backend, delta), func(t *testing.T) {
					cfg := r.cfg
					cfg.WidthMult, cfg.InputSize, cfg.Samples, cfg.Rounds = 0.125, 16, 8, 2
					cfg.Workers, cfg.Backend, cfg.DeltaExec = 4, backend, &d
					if cfg.Seed == 0 {
						cfg.Seed = 3
					}
					sys, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range runPlan(t, sys, r.bers, false).Points {
						if p.Accuracy != r.want[i] {
							t.Errorf("accuracy(%g) = %v, want %v (bit-exactness broken)", p.BER, p.Accuracy, r.want[i])
						}
					}
				})
			}
		}
	}
}

// TestNewUndersizedInput: construction must never panic for any input
// resolution — undersized geometry is either valid (the zoo's padded stacks
// survive even 1x1, checked per-arch by models.ValidateGeometry, whose
// rejection path is covered in models_test.go) or rejected with a
// descriptive error at Config level.
func TestNewUndersizedInput(t *testing.T) {
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		for _, engine := range []Engine{Direct, Winograd} {
			for _, sz := range []int{1, 2, 4} {
				sys, err := New(Config{
					Model: model, Engine: engine, InputSize: sz, Samples: 2, Rounds: 1,
				})
				if err != nil {
					continue // a descriptive rejection is a valid outcome
				}
				if acc := accuracy(t, sys, 0); acc != 1 {
					t.Errorf("%s/%v@%d: golden accuracy %v", model, engine, sz, acc)
				}
			}
		}
		// Nonsensical sizes must be rejected, not silently replaced or
		// panicked on.
		for name, cfg := range map[string]Config{
			"negative InputSize": {Model: model, InputSize: -3},
			"negative Samples":   {Model: model, Samples: -1},
			"negative Rounds":    {Model: model, Rounds: -3},
			"negative WidthMult": {Model: model, WidthMult: -0.5},
			"NaN WidthMult":      {Model: model, WidthMult: math.NaN()},
			"infinite WidthMult": {Model: model, WidthMult: math.Inf(1)},
		} {
			if _, err := New(cfg); err == nil {
				t.Errorf("%s: %s did not error", model, name)
			}
		}
	}
}

// TestForwardCtxAllocFree enforces the arena contract: after the first pass
// has populated an ExecContext's scratch buffers, a steady-state fault-free
// ForwardCtx performs zero heap allocations for either engine, under both
// compute backends. The pre-refactor baseline was 134 (direct) / 254
// (winograd) allocations per pass, so any ceiling breach is a
// >90%-regression signal by construction.
func TestForwardCtxAllocFree(t *testing.T) {
	for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
		for _, backend := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(backend)
			if err != nil {
				t.Fatal(err)
			}
			arch := models.VGG19(models.Tiny)
			net := models.Build(arch, nn.Config{
				Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
			})
			in := tensor.Quantize(
				tensor.New(tensor.Shape{N: 2, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
				fixed.Int16)
			ctx := net.NewExecContext()
			ctx.UseBackend(bk)
			net.ForwardCtx(ctx, in, nil) // warm the arena
			allocs := testing.AllocsPerRun(10, func() { net.ForwardCtx(ctx, in, nil) })
			if allocs != 0 {
				t.Errorf("%v/%s: steady-state ForwardCtx allocates %v times per pass, want 0", kind, backend, allocs)
			}
		}
	}
}

// TestForwardCtxAllocFreeAcrossModels extends the zero-allocation guard to
// every zoo architecture (concat, residual-add, avg-pool and DWM units all
// draw from the arena too), under both compute backends.
func TestForwardCtxAllocFreeAcrossModels(t *testing.T) {
	for _, name := range []string{"resnet50", "densenet169", "googlenet"} {
		for _, backend := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(backend)
			if err != nil {
				t.Fatal(err)
			}
			arch, err := models.ByName(name, models.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			net := models.Build(arch, nn.Config{
				Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
			})
			in := tensor.Quantize(
				tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
				fixed.Int16)
			ctx := net.NewExecContext()
			ctx.UseBackend(bk)
			net.ForwardCtx(ctx, in, nil)
			if allocs := testing.AllocsPerRun(5, func() { net.ForwardCtx(ctx, in, nil) }); allocs != 0 {
				t.Errorf("%s/%s: steady-state ForwardCtx allocates %v times per pass, want 0", name, backend, allocs)
			}
		}
	}
}
