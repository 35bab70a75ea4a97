package winofault

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// These tests pin the kernel seam's central claim end to end: every compute
// backend is bit-identical, not merely statistically close. The kernel-level
// half (per-primitive differential tests over random operands) lives in
// internal/kernel; here whole campaigns and whole forward passes must agree
// to the byte.

// sweepWith runs one sweep under the given backend/workers/delta knobs and
// returns the points.
func sweepWith(t *testing.T, cfg Config, bers []float64) []Point {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runPlan(t, sys, bers, false).Points
}

// TestBackendSweepBitIdentical compares full statistical campaigns between
// the scalar and blocked backends across the model zoo and both engines; for
// vgg19 additionally across worker counts and delta execution on/off, and
// for one hardware-located stuckpe scenario. Accuracies must be equal as
// float64 bit patterns — any divergence means a backend changed an integer
// sum somewhere.
func TestBackendSweepBitIdentical(t *testing.T) {
	bers := []float64{3e-11, 3e-10, 1e-9}
	base := Config{
		WidthMult: 0.125, InputSize: 16, Samples: 8, Rounds: 2, Seed: 3, Workers: 4,
	}
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		for _, engine := range []Engine{Direct, Winograd} {
			t.Run(fmt.Sprintf("%s/%v", model, engine), func(t *testing.T) {
				cfg := base
				cfg.Model, cfg.Engine = model, engine
				cfg.Backend = "scalar"
				want := sweepWith(t, cfg, bers)
				cfg.Backend = "blocked"
				got := sweepWith(t, cfg, bers)
				for i := range want {
					if want[i] != got[i] {
						t.Errorf("point %d: scalar %+v != blocked %+v", i, want[i], got[i])
					}
				}
			})
		}
	}

	// Workers x delta: the backend stamp must survive context pooling and
	// the delta-execution golden plane at every parallelism level.
	t.Run("vgg19/workers-delta", func(t *testing.T) {
		for _, workers := range []int{1, 2, 8} {
			for _, delta := range []bool{true, false} {
				d := delta
				cfg := base
				cfg.Model, cfg.Engine = "vgg19", Winograd
				cfg.Workers, cfg.DeltaExec = workers, &d
				cfg.Backend = "scalar"
				want := sweepWith(t, cfg, bers)
				cfg.Backend = "blocked"
				got := sweepWith(t, cfg, bers)
				for i := range want {
					if want[i] != got[i] {
						t.Errorf("workers=%d delta=%t point %d: scalar %+v != blocked %+v",
							workers, delta, i, want[i], got[i])
					}
				}
			}
		}
	})

	// Hardware-located events replay on the reference path regardless of
	// backend; the surrounding fault-free tiles do not, so a stuckpe
	// campaign exercises both sides of the seam in one sweep.
	t.Run("vgg19/stuckpe", func(t *testing.T) {
		results := map[string][]Point{}
		for _, backend := range []string{"scalar", "blocked"} {
			cfg := base
			cfg.Model, cfg.Engine, cfg.Backend = "vgg19", Winograd, backend
			cfg.Scenario = &Scenario{Kind: "stuckpe", Row: 1, Col: 2, Bit: 24}
			results[backend] = sweepWith(t, cfg, bers)
		}
		for i := range results["scalar"] {
			if results["scalar"][i] != results["blocked"][i] {
				t.Errorf("stuckpe point %d: scalar %+v != blocked %+v",
					i, results["scalar"][i], results["blocked"][i])
			}
		}
	})
}

// diffInjector feeds identical deterministic (seed, round, node) fault events
// to every context it is used with, mirroring faultsim's statistical sampler.
type diffInjector struct {
	seed  uint64
	round uint64
	ber   float64
	fmt   fixed.Format
}

func (in *diffInjector) OpEvents(li int, census fault.Census) []fault.Event {
	return fault.Sample(rng.New(in.seed).Split(in.round).Split(uint64(li)), census, census,
		fault.Model{BER: in.ber, Semantics: fault.ResultFlip}, in.fmt, fault.Protection{})
}

func (in *diffInjector) Neuron(int, *tensor.QTensor) {}

// TestBackendRandomizedDifferential feeds the exact same randomized fault
// rounds to two execution contexts — one per backend — and requires the
// output logits tensors to be element-for-element equal. Unlike the sweep
// comparison (which reduces to accuracies), this catches a backend divergence
// in any single output element, faulty rounds included.
func TestBackendRandomizedDifferential(t *testing.T) {
	for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
		arch := models.VGG19(models.Tiny)
		net := models.Build(arch, nn.Config{
			Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
		}, 1)
		in := tensor.Quantize(
			tensor.New(tensor.Shape{N: 2, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
			fixed.Int16)
		ctxs := map[string]*nn.ExecContext{}
		for _, backend := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(backend)
			if err != nil {
				t.Fatal(err)
			}
			ctx := net.NewExecContext()
			ctx.UseBackend(bk)
			ctxs[backend] = ctx
		}
		for round := uint64(0); round < 8; round++ {
			// Round 0 is fault-free; later rounds draw dense event sets so
			// replay tiles and fast tiles mix within one pass.
			ber := 0.0
			if round > 0 {
				ber = 1e-9 * float64(round)
			}
			logits := map[string][]int32{}
			for backend, ctx := range ctxs {
				inj := &diffInjector{seed: 11, round: round, ber: ber, fmt: fixed.Int16}
				out := net.ForwardCtx(ctx, in, inj)
				logits[backend] = append([]int32(nil), out.Data...)
			}
			want, got := logits["scalar"], logits["blocked"]
			if len(want) != len(got) {
				t.Fatalf("%v round %d: logits length %d != %d", kind, round, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v round %d: logits[%d] scalar %d != blocked %d",
						kind, round, i, want[i], got[i])
				}
			}
		}
	}
}

// countingBackend forwards to scalar and counts the calls it serves.
// Backends are bit-identical, so counting calls is the only way to tell
// which one ran.
type countingBackend struct {
	kernel.Backend
	calls atomic.Int64
}

// counted is registered once per test binary, so -count=N cannot register
// its name twice.
var counted = func() *countingBackend {
	scalar, err := kernel.Get("scalar")
	if err != nil {
		panic(err)
	}
	b := &countingBackend{Backend: scalar}
	kernel.Register(b)
	return b
}()

func (b *countingBackend) Name() string { return "counting-test" }

func (b *countingBackend) ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	b.calls.Add(1)
	b.Backend.ConvRow(acc, in, w, bias, inBase, stride, ic, kh, kw, chanStride, rowStride)
}

func (b *countingBackend) Dot(a, w []int32, bias int64) int64 {
	b.calls.Add(1)
	return b.Backend.Dot(a, w, bias)
}

func (b *countingBackend) Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int) {
	b.calls.Add(1)
	b.Backend.Hadamard(msum, vt, ut, t2, outC, inC)
}

// TestConfiguredBackendRuns: the backend a runner is built with, or a
// System names in Config.Backend, is the one its campaign units run on, on
// parallel workers and with delta execution on or off.
func TestConfiguredBackendRuns(t *testing.T) {
	const ber = 1e-8 // dense enough that delta rounds recompute something
	check := func(name string, sweep func()) {
		t.Helper()
		counted.calls.Store(0)
		sweep()
		if counted.calls.Load() == 0 {
			t.Errorf("%s: the configured backend served no kernel call", name)
		}
	}
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	set := dataset.ForModel(arch.Dataset, 8, arch.In.H, 99, fixed.Int16)
	opts := faultsim.Options{Seed: 1, Intensity: models.IntensityFor(arch, models.VGG19(models.Options{}), nn.Winograd, winograd.F2)}
	for _, delta := range []bool{true, false} {
		r := faultsim.New(net, set.Batch(0, 8), faultsim.Exec{Workers: 2, Backend: counted, Full: !delta})
		check(fmt.Sprintf("runner delta=%t", delta), func() {
			r.Sweep(context.Background(), []float64{ber}, opts, 2)
		})

		d := delta
		cfg := testConfig(Winograd)
		cfg.Workers, cfg.DeltaExec, cfg.Backend = 2, &d, counted.Name()
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("system delta=%t", delta), func() { runPlan(t, sys, []float64{ber}, false) })
	}
}
