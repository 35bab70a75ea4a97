// Package winofault is a Go reproduction of "Winograd Convolution: A
// Perspective from Fault Tolerance" (Xue et al., DAC 2022): an
// operation-level soft-error injection platform for quantized CNNs executed
// with standard or winograd convolution, plus the paper's two applications —
// fine-grained TMR protection planning and voltage-scaled energy
// exploration on a DNN-Engine-class accelerator.
//
// The package is a thin, stable facade over the internal engine packages;
// see DESIGN.md for the system inventory, and run `wfrepro -exp headline`
// for the paper-vs-measured numbers. Typical use:
//
//	sys, err := winofault.New(winofault.Config{Model: "vgg19", Engine: winofault.Winograd})
//	if err != nil { ... }
//	plan, err := sys.Plan([]float64{3e-10}, false)
//	if err != nil { ... }
//	res, err := plan.Run(ctx, nil) // res.Points: golden-agreement accuracy under soft errors
package winofault

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/fixed"
	"repro/internal/hwfault"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/systolic"
	"repro/internal/tmr"
	"repro/internal/volt"
	"repro/internal/winograd"
)

// Engine selects the convolution algorithm.
type Engine int

const (
	// Direct is standard convolution (ST-Conv).
	Direct Engine = iota
	// Winograd is winograd convolution (WG-Conv) with DWM decomposition for
	// kernels other than 3x3 stride 1.
	Winograd
)

// Precision selects the fixed-point quantization width.
type Precision int

const (
	// Int16 is 16-bit fixed point (Q8.8), the paper's main configuration.
	Int16 Precision = iota
	// Int8 is 8-bit fixed point (Q4.4).
	Int8
)

// Semantics selects the fault-injection semantics.
type Semantics int

const (
	// ResultFlip flips one bit of the result register of a sampled
	// operation (the platform default; the paper's stated methodology).
	ResultFlip Semantics = iota
	// OperandFlip flips one bit of one operand instead (the paper's
	// motivating observation, kept for ablation).
	OperandFlip
	// NeuronFlip is TensorFI/PyTorchFI-style neuron-level injection, which
	// cannot distinguish the two engines (paper Fig. 1).
	NeuronFlip
)

// Config describes one evaluated system.
type Config struct {
	// Model is one of "vgg19", "resnet50", "densenet169", "googlenet".
	Model string
	// Engine selects standard or winograd convolution.
	Engine Engine
	// Precision selects int8 or int16 quantization (default Int16).
	Precision Precision
	// Semantics selects the fault model (default ResultFlip).
	Semantics Semantics
	// WidthMult scales channel counts (default 0.125; 1 = paper scale).
	WidthMult float64
	// InputSize overrides the input resolution (default 32).
	InputSize int
	// Samples is the number of synthetic evaluation images (default 24).
	Samples int
	// Rounds is the Monte-Carlo rounds per accuracy estimate (default 2).
	Rounds int
	// Seed makes everything reproducible (default 1).
	Seed uint64
	// TileF4 switches winograd from F(2x2,3x3) to F(4x4,3x3).
	TileF4 bool
	// Workers caps the parallelism of the system's construction and of its
	// fault campaigns (0 = GOMAXPROCS). New draws the layers' weights, the
	// dataset and the golden pass on up to Workers goroutines; 1 keeps the
	// construction one pass on the calling goroutine and the campaigns
	// serial. Every result is bit-identical for any worker count; Workers
	// only changes wall-clock time.
	Workers int
	// DeltaExec controls the fault-cone delta-execution fast path: per
	// Monte-Carlo round only the (node, image) pairs downstream of that
	// round's fault events are recomputed, against one copy of the golden
	// activations that every worker shares. Like Workers it can only change
	// wall-clock time — results are bit-identical either way — so nil (the
	// default) means enabled; point at false to force full re-execution of
	// every round. Neuron-flip semantics always run the full path.
	DeltaExec *bool
	// Backend names the compute backend for the fault-free hot paths:
	// "blocked" (hand-blocked kernels) or "scalar" (the bit-exactness
	// reference); "" means the process default, which is blocked unless the
	// WF_BACKEND environment variable names another. Backends are
	// bit-identical by contract, so like Workers and DeltaExec this only
	// changes wall-clock time. Unknown names are rejected by New.
	Backend string
	// Scenario optionally locates the campaign's faults on the DNN-Engine
	// PE array (stuck PE, SEU burst, voltage-stressed region) instead of
	// drawing them i.i.d. over the op census. Requires ResultFlip semantics
	// and strictly positive BERs; see the Scenario type.
	Scenario *Scenario
}

// Scenario is a hardware-located fault configuration mapped onto the
// DNN-Engine-class 16x16 PE array (see internal/hwfault). It is shared
// between Config and the CampaignRequest wire form; the zero value of every
// optional field means the platform default, so a request spelling a
// default explicitly is the same campaign as one omitting it.
//
// Kinds:
//
//	"stuckpe"    — every MAC scheduled onto PE (Row, Col) has product bit
//	               Bit flipped (a worst-case pinned bit). A negative Row,
//	               Col or Bit is sampled deterministically from the seed.
//	"burst"      — one SEU burst per Monte-Carlo round: a sampled (PE,
//	               cycle-window) corrupts Span consecutive MAC slots.
//	"voltregion" — the inclusive PE rectangle (Row0,Col0)-(Row1,Col1) runs
//	               at supply V and draws bit flips at the voltage model's
//	               timing-error BER, while the rest of the array keeps the
//	               campaign's swept (nominal) BER.
type Scenario struct {
	// Kind is "stuckpe", "burst" or "voltregion".
	Kind string `json:"kind"`
	// Row, Col locate the stuck PE (stuckpe); -1 = sampled from the seed.
	Row int `json:"row,omitempty"`
	Col int `json:"col,omitempty"`
	// Bit is the corrupted product-register bit (stuckpe), counted from the
	// LSB; -1 = sampled from the seed.
	Bit int `json:"bit,omitempty"`
	// Span is the MAC slots corrupted per burst (burst; default 64).
	Span int `json:"span,omitempty"`
	// Row0..Col1 bound the stressed region, inclusive (voltregion).
	Row0 int `json:"row0,omitempty"`
	Col0 int `json:"col0,omitempty"`
	Row1 int `json:"row1,omitempty"`
	Col1 int `json:"col1,omitempty"`
	// V is the region's supply voltage in volts (voltregion).
	V float64 `json:"v,omitempty"`
}

// compile translates the wire scenario into the internal form, validated
// against the DNN-Engine array and the campaign's quantization format.
func (s Scenario) compile(f fixed.Format) (hwfault.Scenario, error) {
	var hs hwfault.Scenario
	switch s.Kind {
	case "stuckpe":
		hs = hwfault.Scenario{Kind: hwfault.StuckPE, PE: hwfault.PE{Row: s.Row, Col: s.Col}, Bit: s.Bit}
	case "burst":
		hs = hwfault.Scenario{Kind: hwfault.BurstSEU, Span: int64(s.Span)}
	case "voltregion":
		hs = hwfault.Scenario{
			Kind:   hwfault.VoltRegion,
			Region: hwfault.Region{Row0: s.Row0, Col0: s.Col0, Row1: s.Row1, Col1: s.Col1},
			V:      s.V,
		}
	default:
		return hs, fmt.Errorf("winofault: unknown scenario kind %q (want stuckpe, burst or voltregion)", s.Kind)
	}
	hs = hs.WithDefaults()
	if err := hs.Validate(systolic.DNNEngine16, f); err != nil {
		return hs, err
	}
	return hs, nil
}

// Normalized validates the scenario against the array geometry and the
// campaign's quantization precision, returning the defaults-applied copy
// that canonicalization (the service cache key) and execution share. Fields
// irrelevant to the kind are zeroed; sampled coordinates stay -1 (their
// identity is the seed, which is part of the campaign anyway).
func (s Scenario) Normalized(p Precision) (Scenario, error) {
	hs, err := s.compile(Config{Precision: p}.format())
	if err != nil {
		return Scenario{}, err
	}
	out := Scenario{Kind: s.Kind}
	switch hs.Kind {
	case hwfault.StuckPE:
		out.Row, out.Col, out.Bit = hs.PE.Row, hs.PE.Col, hs.Bit
	case hwfault.BurstSEU:
		out.Span = int(hs.Span)
	case hwfault.VoltRegion:
		out.Row0, out.Col0 = hs.Region.Row0, hs.Region.Col0
		out.Row1, out.Col1 = hs.Region.Row1, hs.Region.Col1
		out.V = hs.V
	}
	return out, nil
}

// validate rejects a config no campaign can run; zero still means the
// default (see normalize). New and CampaignRequest.SystemConfig both call
// it, so the facade and the service's submit-time gate agree.
func (c Config) validate() error {
	if c.Model != "" {
		if _, err := models.ByName(c.Model, models.Options{}); err != nil {
			return err
		}
	}
	if _, err := kernel.Get(c.Backend); err != nil {
		return fmt.Errorf("winofault: %w", err)
	}
	// Scenario events are mul result-register flips; under any other
	// semantics the injector would silently ignore them and hand back
	// statistical results labeled as a scenario campaign.
	if c.Scenario != nil && c.Semantics != ResultFlip {
		return fmt.Errorf("winofault: scenario %q requires result-flip semantics, got %q", c.Scenario.Kind, c.semantics())
	}
	if c.WidthMult < 0 || math.IsNaN(c.WidthMult) || math.IsInf(c.WidthMult, 0) {
		return fmt.Errorf("winofault: WidthMult %v is negative or not finite (0 means the default)", c.WidthMult)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"InputSize", c.InputSize}, {"Samples", c.Samples}, {"Rounds", c.Rounds}} {
		if f.v < 0 {
			return fmt.Errorf("winofault: %s %d is negative (0 means the default)", f.name, f.v)
		}
	}
	return nil
}

func (c *Config) normalize() {
	if c.Model == "" {
		c.Model = "vgg19"
	}
	if c.WidthMult == 0 {
		c.WidthMult = 0.125
	}
	if c.InputSize == 0 {
		c.InputSize = 32
	}
	if c.Samples == 0 {
		c.Samples = 24
	}
	if c.Rounds == 0 {
		c.Rounds = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c Config) format() fixed.Format {
	if c.Precision == Int8 {
		return fixed.Int8
	}
	return fixed.Int16
}

func (c Config) kind() nn.EngineKind {
	if c.Engine == Winograd {
		return nn.Winograd
	}
	return nn.Direct
}

func (c Config) tile() *winograd.Tile {
	if c.TileF4 {
		return winograd.F4
	}
	return winograd.F2
}

func (c Config) semantics() fault.Semantics {
	switch c.Semantics {
	case OperandFlip:
		return fault.OperandFlip
	case NeuronFlip:
		return fault.NeuronFlip
	default:
		return fault.ResultFlip
	}
}

// System is a ready-to-evaluate network + fault-injection campaign. Its
// description — the architecture, the paper-scale fault intensities, the
// conv/FC layers, protection and scenario — follows from the config and the
// architecture's geometry alone. Its executor, the runner over the network's
// weights, the evaluation set and the golden pass, is what a campaign's
// units execute on: New builds both, while NewPlan describes a system and
// builds its executor on the plan's first Counts or Run.
type System struct {
	cfg      Config
	arch     *models.Arch
	full     *models.Arch
	conv     []int // conv/FC node indices, in network order
	opts     faultsim.Options
	census   []fault.Census
	progress func(done, total int) // see OnProgress

	// mu guards runner, the executor, while a plan builds it (executor).
	mu     sync.Mutex
	runner *faultsim.Runner
}

// New builds a system: the scaled quantized network with deterministic
// weights, a synthetic evaluation set, and paper-scale fault intensities.
func New(cfg Config) (*System, error) {
	s, err := describe(cfg)
	if err != nil {
		return nil, err
	}
	s.runner = s.build()
	return s, nil
}

// describe validates cfg and derives everything that follows from it and
// the architecture's geometry: it draws no weight and runs no pass.
func describe(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	scale := models.Options{WidthMult: cfg.WidthMult, InputSize: cfg.InputSize}
	arch, err := models.ByName(cfg.Model, scale)
	if err != nil {
		return nil, err
	}
	// Reject undersized geometry here with a descriptive error; otherwise a
	// too-small InputSize panics deep inside the convolution engines.
	if err := models.ValidateGeometry(arch); err != nil {
		return nil, fmt.Errorf("winofault: config %q input %dx%d: %w",
			cfg.Model, cfg.InputSize, cfg.InputSize, err)
	}
	full, _ := models.ByName(cfg.Model, models.Options{})
	sys := &System{
		cfg:    cfg,
		arch:   arch,
		full:   full,
		conv:   models.ConvNodes(arch),
		census: models.Census(arch, cfg.kind(), cfg.tile()),
		opts: faultsim.Options{
			Semantics:       cfg.semantics(),
			Seed:            cfg.Seed,
			Intensity:       models.IntensityFor(arch, full, cfg.kind(), cfg.tile()),
			NeuronIntensity: models.NeuronIntensityFor(arch, full),
		},
	}
	if cfg.Scenario != nil {
		f := cfg.format()
		hs, err := cfg.Scenario.compile(f)
		if err != nil {
			return nil, err
		}
		// Sampled stuck coordinates resolve from the campaign seed, so every
		// process that builds the same config injects identical faults.
		sched := hwfault.NetworkSchedules(systolic.DNNEngine16, arch, cfg.kind(), cfg.tile(), cfg.Samples)
		if sys.opts.HW, err = hwfault.NewInjection(hs, systolic.DNNEngine16, f, sched, cfg.Seed); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// build draws the network's weights and the evaluation set and runs the
// golden pass, returning the system's executor.
func (s *System) build() *faultsim.Runner {
	cfg := s.cfg
	f := cfg.format()
	// The dataset is drawn beside the build, which spreads its layers over
	// the same worker budget; with one worker both run in order on this
	// goroutine.
	var (
		net *nn.Network
		set *dataset.Set
	)
	par.Do(cfg.Workers, 2, func(i int) {
		if i == 0 {
			net = models.Build(s.arch, nn.Config{
				Kind: cfg.kind(), Tile: cfg.tile(), ActFmt: f, WFmt: f, Seed: cfg.Seed ^ 0xabcdef,
			}, cfg.Workers)
		} else {
			set = dataset.ForModel(s.arch.Dataset, cfg.Samples, s.arch.In.H, cfg.Seed^0x5eed, f)
		}
	})
	bk, _ := kernel.Get(cfg.Backend) // validate accepted the name
	return faultsim.New(net, set.Batch(0, cfg.Samples), faultsim.Exec{
		Workers: cfg.Workers,
		Backend: bk,
		// Neuron flips run in full on any runner, so a full one skips the
		// plane it would never read.
		Full: cfg.DeltaExec != nil && !*cfg.DeltaExec || cfg.Semantics == NeuronFlip,
	})
}

// executor returns the system's runner, building it first if the system
// has none yet (a plan from NewPlan) inside a "build" span (model, engine,
// workers) on obs.From(ctx)'s trace. Concurrent first calls build once.
func (s *System) executor(ctx context.Context) *faultsim.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runner == nil {
		engine := "direct"
		if s.cfg.Engine == Winograd {
			engine = "winograd"
		}
		sp := obs.From(ctx).Trace.Start("build",
			obs.A("model", s.cfg.Model), obs.A("engine", engine), obs.A("workers", par.Workers(s.cfg.Workers)))
		s.runner = s.build()
		sp.End()
	}
	return s.runner
}

// Point is one (BER, accuracy) measurement.
type Point struct {
	BER      float64
	Accuracy float64 // golden-agreement accuracy in [0,1]
}

// SweepCtx runs a BER sweep campaign and returns its points. Plan.Run is the
// way to run a campaign; SweepCtx, LayerSensitivitiesCtx, OnProgress and
// LayerUnits serve cmd/wfbench's serial replay, which times the phases one
// by one. A canceled ctx discards the partial points and returns ctx.Err().
func (s *System) SweepCtx(ctx context.Context, bers []float64) ([]Point, error) {
	p, err := s.Plan(bers, false)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(ctx, nil)
	if err != nil {
		return nil, err
	}
	return res.Points, nil
}

// LayerUnits is the unit total of the layer-sensitivity batch at one BER,
// as Plan.Phases reports it; it serves cmd/wfbench's serial replay.
func (s *System) LayerUnits(ber float64) int {
	return faultsim.Units(faultsim.LayerCampaigns(s.conv, ber, s.opts), s.cfg.Rounds)
}

// OnProgress registers fn to observe the progress of this system's plans
// whenever Plan.Run or Plan.Counts is given no callback of its own: after
// every finished (campaign, Monte-Carlo round) work unit it receives the
// completed and total unit counts of the running batch. The callback is
// observational only (it can never change results) and may be invoked
// concurrently from scheduler workers, so it must be goroutine-safe. A nil
// fn removes the callback.
func (s *System) OnProgress(fn func(done, total int)) { s.progress = fn }

// SetProtection installs a fine-grained TMR protection plan by layer name:
// each entry maps a convolution layer (named as in CampaignResult.Layers) to
// its protected [mul, add] operation fractions in [0, 1]. An empty or nil map
// clears the protection. The plan applies to every subsequent campaign run by
// this system.
func (s *System) SetProtection(layers map[string][2]float64) error {
	if len(layers) == 0 {
		s.opts.Protection = nil
		return nil
	}
	byName := make(map[string]int, len(s.conv))
	for _, li := range s.conv {
		byName[s.arch.Ops[li].Name] = li
	}
	prot := make(map[int]fault.Protection, len(layers))
	for name, fr := range layers {
		li, ok := byName[name]
		if !ok {
			return fmt.Errorf("winofault: protection names unknown conv layer %q", name)
		}
		if fr[0] < 0 || fr[0] > 1 || fr[1] < 0 || fr[1] > 1 {
			return fmt.Errorf("winofault: protection fractions for %q out of [0,1]: %v", name, fr)
		}
		prot[li] = fault.Protection{MulFrac: fr[0], AddFrac: fr[1]}
	}
	s.opts.Protection = prot
	return nil
}

// FormatSweep renders sweep points as the canonical accuracy table shared by
// the wfsim CLI and the wfserve text endpoint — one header line, then one
// "%-12.3g %.2f" row per point. Keeping a single renderer is what lets CI
// diff the two byte-for-byte.
func FormatSweep(w io.Writer, pts []Point) {
	fmt.Fprintf(w, "%-12s %s\n", "BER", "accuracy%")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12.3g %.2f\n", p.BER, p.Accuracy*100)
	}
}

// LayerSensitivity is the fault sensitivity of one convolution layer.
type LayerSensitivity struct {
	Layer string
	// Accuracy with this layer fault-free while the rest is injected.
	FaultFreeAccuracy float64
	// Vulnerability = FaultFreeAccuracy - baseline (paper's vulnerability
	// factor); larger means more critical.
	Vulnerability float64
	// Muls is the layer's full-size multiplication count.
	Muls int64
}

// LayerSensitivitiesCtx runs the paper's Fig. 3 analysis at the given BER —
// the layers phase of a campaign at that BER — returning the all-faulty
// baseline accuracy and per-layer results in network order. Like SweepCtx it
// serves cmd/wfbench's serial replay. When ctx is canceled the partial
// analysis is discarded and ctx.Err() is returned.
func (s *System) LayerSensitivitiesCtx(ctx context.Context, ber float64) (baseline float64, layers []LayerSensitivity, err error) {
	p, err := s.Plan([]float64{ber}, true)
	if err != nil {
		return 0, nil, err
	}
	var res CampaignResult
	counts, err := p.Counts(ctx, 1, 0, p.phases[1].Units, nil)
	if err == nil {
		err = p.Reduce(&res, 1, counts)
	}
	return res.Baseline, res.Layers, err
}

// TMRPlan is a fine-grained protection plan.
type TMRPlan struct {
	// Accuracy achieved under the campaign BER.
	Accuracy float64
	// OverheadOps is the extra executed operations (2x each protected op).
	OverheadOps int64
	// OverheadFraction is OverheadOps relative to the full-TMR overhead.
	OverheadFraction float64
	// Layers maps layer name to protected (mul, add) fractions.
	Layers map[string][2]float64
}

// OptimizeTMR searches for the cheapest fine-grained TMR plan reaching the
// target golden-agreement accuracy at the given BER (paper Section 4.1).
func (s *System) OptimizeTMR(ber, targetAccuracy float64) *TMRPlan {
	ctx := context.Background()
	opts := s.opts
	vf := tmr.Vulnerability(ctx, s.runner, ber, opts, s.cfg.Rounds)
	plan := (&tmr.Optimizer{
		Runner: s.runner, Opts: opts, BER: ber, Rounds: s.cfg.Rounds, VF: vf, Step: 0.125,
	}).Optimize(ctx, targetAccuracy, 600)
	out := &TMRPlan{
		Accuracy:    plan.Accuracy,
		OverheadOps: plan.Overhead(s.opts.Intensity),
		Layers:      map[string][2]float64{},
	}
	full := 2 * tmr.TotalOps(s.opts.Intensity)
	if full > 0 {
		out.OverheadFraction = float64(out.OverheadOps) / float64(full)
	}
	for li, p := range plan.Protection {
		out.Layers[s.arch.Ops[li].Name] = [2]float64{p.MulFrac, p.AddFrac}
	}
	return out
}

// EnergyPoint is one voltage-scaling operating point.
type EnergyPoint struct {
	AccuracyLossPct float64
	Voltage         float64
	// Energy normalized to direct convolution at nominal voltage.
	NormalizedEnergy float64
}

// ExploreEnergy finds, for each accuracy-loss constraint (in percent), the
// lowest accelerator supply voltage the system tolerates and the resulting
// energy, normalized to a direct-convolution run at nominal voltage (paper
// Section 4.2).
func (s *System) ExploreEnergy(lossesPct []float64) []EnergyPoint {
	acc := volt.DNNEngine
	array := systolic.DNNEngine16
	const batch = 16
	bers := []float64{1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7}
	pts := s.runner.Sweep(context.Background(), bers, s.opts, 3*s.cfg.Rounds)
	accs := make([]float64, len(pts))
	for i, p := range pts {
		accs[i] = p.Accuracy
	}
	curve := volt.NewAccuracyCurve(bers, volt.Isotonic(accs))

	cost := array.NetworkCost(s.full, s.cfg.kind(), s.cfg.tile(), batch)
	baseCost := array.NetworkCost(s.full, nn.Direct, nil, batch)
	baseline := acc.Energy(baseCost.Cycles, acc.VNom)
	grid := volt.VoltageGrid(acc.VMin, acc.VNom, 0.002)

	var out []EnergyPoint
	for _, loss := range lossesPct {
		v, ok := acc.MinVoltage(curve, 1-loss/100, grid)
		if !ok {
			v = acc.VNom
		}
		out = append(out, EnergyPoint{
			AccuracyLossPct:  loss,
			Voltage:          v,
			NormalizedEnergy: acc.Energy(cost.Cycles, v) / baseline,
		})
	}
	return out
}

// OpCounts reports the network's total primitive-operation counts per image
// (scaled model and full-size architecture).
func (s *System) OpCounts() (scaledMul, scaledAdd, fullMul, fullAdd int64) {
	for _, c := range s.census {
		scaledMul += c.Mul
		scaledAdd += c.Add
	}
	for _, c := range s.opts.Intensity {
		fullMul += c.Mul
		fullAdd += c.Add
	}
	return
}

// GoldenPredictions returns the fault-free predictions of the evaluation set.
func (s *System) GoldenPredictions() []int { return s.runner.Golden() }

// Experiments lists the reproducible paper experiments.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper figure/table (see Experiments for
// IDs), rendering its series to w. Budget selects the run size: "smoke"
// (seconds), "quick" (default; seconds to minutes per figure) or "full"
// (quarter-width models, more samples; minutes).
func RunExperiment(id, budget string, w io.Writer) error {
	var cfg experiments.Config
	switch budget {
	case "smoke":
		cfg = experiments.Smoke()
	case "", "quick":
		cfg = experiments.Quick()
	case "full":
		cfg = experiments.Quick()
		cfg.Scale = models.Options{WidthMult: 0.25, InputSize: 32}
		cfg.Samples = 48
		cfg.Rounds = 3
	default:
		return fmt.Errorf("winofault: unknown budget %q (want smoke, quick or full)", budget)
	}
	return experiments.Run(id, cfg, w)
}
