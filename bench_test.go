// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per figure, plus the headline numbers and the
// reproduction-specific ablations). Run with:
//
//	go test -bench=. -benchmem              # smoke budget, minutes total
//	go test -bench=Fig2 -benchtime=1x -tags=full
//
// Each iteration regenerates the complete figure; reported metrics therefore
// measure the cost of one full reproduction of that experiment.
package winofault

import (
	"context"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
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

// benchConfig picks the experiment budget: -short (and the default bench
// run) uses the smoke scale so the whole suite completes in a few minutes.
func benchConfig(b *testing.B) experiments.Config {
	b.Helper()
	if testing.Short() {
		return experiments.Smoke()
	}
	cfg := experiments.Smoke()
	cfg.Samples = 12
	return cfg
}

func benchExperiment(b *testing.B, id string) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (neuron- vs operation-level FI).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2 regenerates Figure 2 (network-wise accuracy vs BER).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3 (layer-wise sensitivity).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4 (operation-type sensitivity).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (fine-grained TMR overhead).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (voltage vs BER vs accuracy).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (voltage-scaled energy).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkHeadline regenerates the paper's abstract summary numbers.
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// BenchmarkAblationSemantics compares the three fault semantics.
func BenchmarkAblationSemantics(b *testing.B) { benchExperiment(b, "semantics") }

// BenchmarkAblationTile compares winograd F(2x2,3x3) vs F(4x4,3x3).
func BenchmarkAblationTile(b *testing.B) { benchExperiment(b, "tile") }

// Engine microbenchmarks: the raw inference cost underlying every
// experiment, per engine.

func benchForward(b *testing.B, kind nn.EngineKind) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	in := tensor.Quantize(
		tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
		fixed.Int16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(in, nil)
	}
}

// BenchmarkForwardDirect measures one VGG19-tiny inference, direct engine.
func BenchmarkForwardDirect(b *testing.B) { benchForward(b, nn.Direct) }

// BenchmarkForwardWinograd measures one VGG19-tiny inference, winograd engine.
func BenchmarkForwardWinograd(b *testing.B) { benchForward(b, nn.Winograd) }

// BenchmarkForwardCtxReuse measures the inference with a reused ExecContext,
// the per-worker configuration of the campaign scheduler (amortizes per-pass
// shape/census setup across Monte-Carlo rounds).
func BenchmarkForwardCtxReuse(b *testing.B) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Direct, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	in := tensor.Quantize(
		tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
		fixed.Int16)
	ctx := net.NewExecContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardCtx(ctx, in, nil)
	}
}

// benchForwardCtx measures the steady-state campaign hot path: a reused
// ExecContext whose scratch arenas are already warm, fault-free rounds.
// allocs/op must stay 0 (see TestForwardCtxAllocFree); ns/op is the paired
// before/after metric the CI benchmark-delta step compares across commits.
// backend selects the compute backend ("" = the process default: blocked,
// unless WF_BACKEND names another); results are bit-identical either way.
// Under WF_BACKEND=scalar the default/blocked pairs below measure the pure
// wall-clock effect of the blocked kernels.
func benchForwardCtx(b *testing.B, kind nn.EngineKind, backend string) {
	bk, err := kernel.Get(backend)
	if err != nil {
		b.Fatal(err)
	}
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	in := tensor.Quantize(
		tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
		fixed.Int16)
	ctx := net.NewExecContext()
	ctx.UseBackend(bk)
	net.ForwardCtx(ctx, in, nil) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardCtx(ctx, in, nil)
	}
}

// BenchmarkForwardCtxDirect is the steady-state direct-engine forward pass.
func BenchmarkForwardCtxDirect(b *testing.B) { benchForwardCtx(b, nn.Direct, "") }

// BenchmarkForwardCtxWinograd is the steady-state winograd forward pass.
func BenchmarkForwardCtxWinograd(b *testing.B) { benchForwardCtx(b, nn.Winograd, "") }

// BenchmarkForwardCtxBlocked is BenchmarkForwardCtxWinograd on the blocked
// backend (paired-output-channel Hadamard accumulation).
func BenchmarkForwardCtxBlocked(b *testing.B) { benchForwardCtx(b, nn.Winograd, "blocked") }

// BenchmarkForwardCtxBlockedDirect is BenchmarkForwardCtxDirect on the
// blocked backend (4-wide output-column MAC blocking).
func BenchmarkForwardCtxBlockedDirect(b *testing.B) { benchForwardCtx(b, nn.Direct, "blocked") }

// noEventInjector is a non-nil injector whose rounds carry no faults — the
// shape of the overwhelming majority of rounds at realistic BERs.
type noEventInjector struct{}

func (noEventInjector) OpEvents(int, fault.Census) []fault.Event { return nil }
func (noEventInjector) Neuron(int, *tensor.QTensor)              {}

// BenchmarkForwardCtxDelta measures the steady-state delta-execution round
// with an empty event stream: the pass reduces to collecting events, scanning
// the dirty set and returning the cached golden logits. This is the unit the
// campaign scheduler runs thousands of times per sweep at low BERs; allocs/op
// must stay 0 (the delta working set is part of the arena contract,
// enforced by TestForwardDeltaAllocFree).
func BenchmarkForwardCtxDelta(b *testing.B) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	in := tensor.Quantize(
		tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
		fixed.Int16)
	ctx := net.NewExecContext()
	inj := nn.Injector(noEventInjector{})
	plane := net.CapturePlane(ctx, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardDelta(ctx, plane, nil, inj)
	}
}

// oneEventInjector places the same events on one node every round.
type oneEventInjector struct {
	node int
	evs  []fault.Event
}

func (o oneEventInjector) OpEvents(li int, _ fault.Census) []fault.Event {
	if li == o.node {
		return o.evs
	}
	return nil
}
func (oneEventInjector) Neuron(int, *tensor.QTensor) {}

// BenchmarkForwardCtxDeltaSparse measures a steady-state delta round whose
// one event lands on one image of a 24-image batch: a result flip at the
// first convolution of winograd VGG19-tiny. The round recomputes that
// image's fault cone and serves the other 23 images from the golden plane.
func BenchmarkForwardCtxDeltaSparse(b *testing.B) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	const images = 24
	in := tensor.Quantize(
		tensor.New(tensor.Shape{N: images, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
		fixed.Int16)
	first := net.ConvNodes()[0]
	muls := net.LayerCensus(in.Shape)[first].Mul
	inj := nn.Injector(oneEventInjector{node: first, evs: []fault.Event{
		{Class: fault.OpMul, Op: muls / images * 11, Bit: 27, Operand: fault.ResultReg},
	}})
	ctx := net.NewExecContext()
	plane := net.CapturePlane(ctx, in)
	net.ForwardDelta(ctx, plane, nil, inj) // warm the arena
	if ctx.DirtyCount() < len(net.Nodes)/2 {
		b.Fatalf("the event's cone re-converged after %d node-images", ctx.DirtyCount())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardDelta(ctx, plane, nil, inj)
	}
}

// Campaign-scheduler benchmarks: one 8-point BER sweep of a winograd
// VGG19-tiny campaign at different worker counts. Accuracies are
// bit-identical across all of these; only wall-clock changes. The 8x2 = 16
// independent units can keep 4 workers busy, but the speedup is bounded by
// the host's cores: on a 2-vCPU host wfbench measured faultsim.speedup
// 1.63–2.01 (imbalance at most 1.04), so SweepWorkers4 and SweepWorkersMax
// gain at most about 2x over SweepWorkers1 there.
func benchSweepWorkers(b *testing.B, workers int) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	set := dataset.ForModel(arch.Dataset, 8, arch.In.H, 99, fixed.Int16)
	runner := faultsim.New(net, set.Batch(0, 8), faultsim.Exec{Workers: workers})
	bers := []float64{1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7}
	opts := faultsim.Options{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Sweep(context.Background(), bers, opts, 2)
	}
}

// BenchmarkSweepWorkers1 is the serial baseline of the scheduler benchmark.
func BenchmarkSweepWorkers1(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepWorkers4 is the same sweep on four workers.
func BenchmarkSweepWorkers4(b *testing.B) { benchSweepWorkers(b, 4) }

// BenchmarkSweepWorkersMax is the same sweep at the GOMAXPROCS default.
func BenchmarkSweepWorkersMax(b *testing.B) { benchSweepWorkers(b, 0) }

// Delta-execution benchmarks: a serial sweep at the golden-fixture BERs
// {3e-11, 3e-10, 1e-9} — the regime the accuracy fixtures pin, where most
// Monte-Carlo rounds carry zero or very few fault events — with the
// fault-cone delta path on (the default) versus forced-off full execution.
// The Delta/DeltaOff ratio is the headline win of delta execution; accuracies
// are bit-identical between the two (see TestDeltaMatchesFullExecution).
// allocs/op of the delta variant pins the steady state: the golden plane is
// captured once and the scratch arenas are recycled across rounds, so
// allocations stay a small per-unit constant (injector + reduction
// bookkeeping) instead of scaling with the node count or the round's
// recompute work.
func benchSweepDelta(b *testing.B, enabled bool) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	set := dataset.ForModel(arch.Dataset, 8, arch.In.H, 99, fixed.Int16)
	runner := faultsim.New(net, set.Batch(0, 8), faultsim.Exec{Workers: 1, Full: !enabled})
	bers := []float64{3e-11, 3e-10, 1e-9}
	opts := faultsim.Options{Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Sweep(context.Background(), bers, opts, 2)
	}
}

// BenchmarkSweepDelta is the fixture-BER sweep with delta execution.
func BenchmarkSweepDelta(b *testing.B) { benchSweepDelta(b, true) }

// BenchmarkSweepDeltaOff is the same sweep forced through full execution.
func BenchmarkSweepDeltaOff(b *testing.B) { benchSweepDelta(b, false) }

// BenchmarkSweepBlocked is the fixture-BER sweep (delta on, serial) with the
// blocked compute backend — the whole-campaign counterpart of the ForwardCtx
// backend pairs. Accuracies are bit-identical to BenchmarkSweepDelta's; only
// wall-clock may differ, and allocs/op must stay the same small per-unit
// constant (the backend stamp allocates nothing).
func BenchmarkSweepBlocked(b *testing.B) {
	arch := models.VGG19(models.Tiny)
	net := models.Build(arch, nn.Config{
		Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
	}, 1)
	bk, err := kernel.Get("blocked")
	if err != nil {
		b.Fatal(err)
	}
	set := dataset.ForModel(arch.Dataset, 8, arch.In.H, 99, fixed.Int16)
	runner := faultsim.New(net, set.Batch(0, 8), faultsim.Exec{Workers: 1, Backend: bk})
	bers := []float64{3e-11, 3e-10, 1e-9}
	opts := faultsim.Options{Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Sweep(context.Background(), bers, opts, 2)
	}
}

// BenchmarkSweepDense is a serial campaign at the BERs of the paper's
// high-BER curves {1e-8, 3e-8, 1e-7}: default-scale resnet50 on the
// winograd engine, 8 images, built through New. Every image of a round
// carries tens to thousands of events here, so most layer passes radix-sort
// their event cursor, and the 1×1 layers, which run on the direct engine,
// replay many faulty outputs. allocs/op follows the events drawn.
func BenchmarkSweepDense(b *testing.B) {
	sys, err := New(Config{Model: "resnet50", Engine: Winograd, Samples: 8, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	bers := []float64{1e-8, 3e-8, 1e-7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPlan(b, sys, bers, false)
	}
}

// benchLayerPhase times the layers phase of a dist-layers campaign —
// default vgg19 on the winograd engine, 24 images, 2 rounds, BERs
// 1e-10/1e-9/1e-8, so the layer batch runs at 1e-9 — at Workers 1, cut
// into parts ranges the way the coordinator cuts it and run through one
// plan. Each iteration starts, outside the timer, from a released plan
// warmed by one sweep unit: golden plane and context warm and no reference
// round kept, as at a dist worker's first layers shard.
func benchLayerPhase(b *testing.B, parts int) {
	plan, err := NewPlan(CampaignRequest{
		Model: "vgg19", Engine: "winograd", BERs: []float64{1e-10, 1e-9, 1e-8}, Layers: true, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	units := plan.Phases()[1].Units
	size := (units + parts - 1) / parts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plan.Release()
		if _, err := plan.Counts(ctx, 0, 0, 1, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lo := 0; lo < units; lo += size {
			if _, err := plan.Counts(ctx, 1, lo, min(lo+size, units), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLayerPhaseSplit times the layers phase whole, and split into the
// coordinator's four ranges for two live workers ((units+3)/4 each). The
// first range that needs a round captures it and the plan keeps it for the
// others, so split costs about what whole does; captured once per range
// instead, split took about 1.8 times whole on a 2-vCPU Xeon host.
func BenchmarkLayerPhaseSplit(b *testing.B) {
	b.Run("whole", func(b *testing.B) { benchLayerPhase(b, 1) })
	b.Run("split", func(b *testing.B) { benchLayerPhase(b, 4) })
}

// benchNew times New for the default-scale vgg19 winograd system: the
// layers' weight draws and filter transforms, the dataset and the golden
// pass that a campaign pays before its first round. With Workers 1 all of
// it is one pass on the calling goroutine; at the GOMAXPROCS default the
// draws spread by layer, the dataset is drawn beside them, and the golden
// pass splits by image range. The NewWorkers1/NewWorkersMax ratio is the
// construction speedup; a 2-vCPU host bounds it at about 2.
func benchNew(b *testing.B, workers int) {
	cfg := Config{Model: "vgg19", Engine: Winograd, Workers: workers}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewWorkers1 builds the system on the calling goroutine alone.
func BenchmarkNewWorkers1(b *testing.B) { benchNew(b, 1) }

// BenchmarkNewWorkersMax builds it on GOMAXPROCS workers.
func BenchmarkNewWorkersMax(b *testing.B) { benchNew(b, 0) }
