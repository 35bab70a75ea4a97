// Package faultsim is the operation-level fault-injection platform of the
// reproduction (paper Section 3.1): it runs quantized networks under a
// soft-error model, measures golden-agreement accuracy across bit-error-rate
// sweeps, and supports the layer fault-free masks, operation-type masks and
// per-layer TMR protection configurations used by the paper's analyses.
//
// A campaign (Options plus a BER) is what a runner computes; Exec is how the
// runner computes it. Campaigns run on a deterministic worker pool (see
// pool.go and DESIGN.md): Monte-Carlo rounds, BER sweep points and
// per-layer masks are independent work units whose randomness derives from
// split rng streams, so every count is bit-identical for any Exec. A delta
// runner runs each round as a delta against the golden run (nn.ForwardDelta)
// or, for campaigns that draw their batch's first campaign's events at all
// but a few nodes — a layer-sensitivity batch — against that campaign's
// round, captured once and kept for later calls within a byte budget
// (reference.go).
package faultsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/hwfault"
	"repro/internal/kernel"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Options is what one injection campaign computes, apart from its BER:
// every field can change a count.
type Options struct {
	// Semantics selects operand/result/neuron-level injection.
	Semantics fault.Semantics
	// Seed drives all fault randomness; every (seed, round, node) tuple is an
	// independent deterministic stream.
	Seed uint64
	// Intensity optionally overrides each node's own op census for the
	// expected-fault computation with full-size network counts (see
	// DESIGN.md substitutions). Length must match the node count when set.
	Intensity []fault.Census
	// NeuronIntensity is the analogous per-node activation element count for
	// neuron-level injection.
	NeuronIntensity []int64
	// FaultFree exempts the given node indices from injection (layer-wise
	// sensitivity analysis, Fig. 3).
	FaultFree map[int]bool
	// MulFaultFree / AddFaultFree exempt a whole operation class (Fig. 4).
	MulFaultFree bool
	AddFaultFree bool
	// Protection is the per-node fine-grained TMR configuration (Fig. 5).
	Protection map[int]fault.Protection
	// HW, when set, replaces the statistical operation-level sampler for
	// conv/FC nodes with hardware-located event generation mapped onto the
	// systolic array schedule (see internal/hwfault): stuck PEs, SEU bursts
	// and voltage-stressed regions. FaultFree masks, MulFaultFree and
	// per-node mul protection still apply; all generated events are
	// mul result-register flips, so campaigns using HW run ResultFlip
	// semantics. Nodes without an array schedule stay fault-free, and so do
	// all additions — the PE array executes MACs while the vector unit and
	// accumulator datapath are modeled fault-free, so the statistical
	// background of a voltage-region scenario covers multiplications only.
	// Events remain a pure function of (Seed, round, node), so every
	// determinism and sharding guarantee of the statistical path carries
	// over.
	//
	// Note the unit-space contract is unchanged: campaigns with BER <= 0
	// are still skipped as exactly fault-free, so hardware scenarios must
	// run at a positive (background) BER to take effect.
	HW *hwfault.Injection
}

// Exec is how a runner executes campaigns. None of it can change a count:
// units take their randomness from (seed, round) alone, backends are
// bit-identical by contract, and delta rounds reproduce full ones, which is
// why the service's cache key ignores all three.
type Exec struct {
	// Workers caps the scheduler's parallelism and New's golden pass,
	// which runs as min(Workers, N) sub-batch passes: 0 means GOMAXPROCS,
	// and 1 runs the golden pass as one pass and every unit in order, all
	// on the calling goroutine (see pool.go).
	Workers int
	// Backend runs the fault-free hot paths on every context the runner
	// makes; nil means the process default (kernel.Default).
	Backend kernel.Backend
	// Full forces full re-execution of every round. A full runner keeps
	// only the golden predictions and never captures a plane. Otherwise the
	// runner captures the golden per-node activations into one plane that
	// every worker shares, and per round each worker recomputes only the
	// (node, image) pairs downstream of that round's fault events (see
	// nn.ForwardDelta). Neuron-flip campaigns run in full either way:
	// neuron flips are not located by the event stream, so no dirty set can
	// bound their cone.
	Full bool
}

// Runner evaluates one network against one evaluation input set. It owns
// the working state of its calls: at most Workers warm contexts, a delta
// runner's golden plane and the reference rounds later calls may reuse
// (reference.go). It keeps them from the call that builds them until
// Release, or until the runner is dropped.
type Runner struct {
	Net    *nn.Network
	Inputs *tensor.QTensor // the full evaluation batch; must not change
	exec   Exec
	golden []int
	// plane is the golden activation of every node for Inputs, captured by
	// a delta runner's golden pass and read-only afterwards, so every
	// worker's delta rounds serve the same one. Release drops it and the
	// next delta unit captures it again, under planeMu. A full runner never
	// captures one.
	planeMu sync.Mutex
	plane   *nn.Plane
	// mu guards the rest of the working state. gen counts Releases, so a
	// call that straddles one keeps nothing it built before it.
	mu    sync.Mutex
	gen   uint64
	idle  []*nn.ExecContext // detached, at most Workers
	store roundStore
}

// New runs the runner's golden pass and returns a ready runner. The pass is
// split into min(Workers, N) sub-batch passes over contiguous image ranges,
// run concurrently (see passContexts). A delta runner's pass captures its
// plane; a full runner's pass keeps only each range's golden predictions. A
// one-range pass runs on a context the runner then keeps for its first
// call. A pass that panics panics New on the calling goroutine.
func New(net *nn.Network, inputs *tensor.QTensor, exec Exec) *Runner {
	r := &Runner{Net: net, Inputs: inputs, exec: exec}
	w := r.worker()
	if exec.Full {
		r.golden = net.PredictSplit(inputs, r.passContexts(w.ec))
	} else {
		r.golden = nn.Argmax(r.goldenPlane(w).Output())
	}
	r.keep(w)
	return r
}

// Golden returns the fault-free predictions of the evaluation batch.
func (r *Runner) Golden() []int { return r.golden }

// Workers reports how many workers the runner's scheduler uses: Exec.Workers,
// with 0 meaning GOMAXPROCS.
func (r *Runner) Workers() int { return par.Workers(r.exec.Workers) }

// Release frees the runner's working state: its idle contexts, its golden
// plane and its kept reference rounds. The runner stays usable, and its
// next call captures what it needs again, at the cost of a golden pass and
// cold contexts. A call in flight keeps what it holds until it returns and
// then keeps nothing.
func (r *Runner) Release() {
	r.planeMu.Lock()
	r.plane = nil
	r.planeMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	r.idle = nil
	r.store = roundStore{}
}

// goldenPlane returns the runner's golden plane, capturing it if the runner
// holds none: in New, and in the first delta unit after a Release.
func (r *Runner) goldenPlane(w *worker) *nn.Plane {
	if w.plane == nil {
		r.planeMu.Lock()
		defer r.planeMu.Unlock()
		if r.plane == nil {
			r.plane = r.Net.CaptureSplit(r.Inputs, r.passContexts(w.ec))
		}
		w.plane = r.plane
	}
	return w.plane
}

// passContexts returns the contexts of a golden pass split into
// min(Workers, N) image ranges, one per range. A one-range pass runs on ec,
// the calling worker's context, whose scratch the full batch shapes anyway.
// A split pass runs each range on a fresh context the runner never keeps: a
// context's scratch is shaped by its batch, so a sub-batch context would
// only be rebuilt by the next full-batch round. With Workers 1 the pass is
// one pass on the calling goroutine.
func (r *Runner) passContexts(ec *nn.ExecContext) []*nn.ExecContext {
	parts := min(r.Workers(), r.Inputs.Shape.N)
	if parts == 1 {
		return []*nn.ExecContext{ec}
	}
	ctxs := make([]*nn.ExecContext, parts)
	for k := range ctxs {
		ctxs[k] = r.newContext()
	}
	return ctxs
}

// injector adapts Options + BER to the nn.Injector interface for one
// Monte-Carlo round.
type injector struct {
	opts    *Options
	model   fault.Model
	round   *rng.Stream
	batch   int // evaluation batch size (Intensity describes one image)
	fmt     fixed.Format
	convSet map[int]struct{}
}

func (in *injector) OpEvents(li int, census fault.Census) []fault.Event {
	if in.model.Semantics == fault.NeuronFlip {
		return nil
	}
	if in.opts.FaultFree[li] {
		return nil
	}
	if in.opts.HW != nil {
		prot := in.opts.Protection[li]
		if in.opts.MulFaultFree {
			prot.MulFrac = 1
		}
		return in.opts.HW.Events(li, in.round, in.model.BER, 1-prot.Frac(fault.OpMul))
	}
	intensity := census
	if in.opts.Intensity != nil {
		intensity = in.opts.Intensity[li].Scale(float64(in.batch))
	}
	prot := in.opts.Protection[li]
	if in.opts.MulFaultFree {
		prot.MulFrac = 1
	}
	if in.opts.AddFaultFree {
		prot.AddFrac = 1
	}
	return fault.Sample(in.round.Split(uint64(li)), census, intensity, in.model, in.fmt, prot)
}

func (in *injector) Neuron(li int, q *tensor.QTensor) {
	if in.model.Semantics != fault.NeuronFlip {
		return
	}
	if in.opts.FaultFree[li] {
		return
	}
	// Neuron-level FI applies to compute-layer outputs (the "neurons").
	if _, ok := in.convSet[li]; !ok {
		return
	}
	intensity := int64(len(q.Data))
	if in.opts.NeuronIntensity != nil {
		intensity = in.opts.NeuronIntensity[li] * int64(in.batch)
	}
	fault.InjectNeuronsIntensity(q, in.model.BER, intensity, in.round.Split(uint64(li)^0x9e37))
}

// Campaign is one accuracy measurement: a BER paired with campaign options.
// Batches of campaigns share the scheduler's worker pool, so heterogeneous
// evaluations (e.g. the TMR optimizer's candidate plans, or the operation-
// class ablations) saturate all workers instead of running back to back.
type Campaign struct {
	BER  float64
	Opts Options
}

// injector returns campaign c's injector for one Monte-Carlo round. All
// randomness is derived from (c.Opts.Seed, round) alone, so a unit's result
// is independent of which worker executes it and in what order.
func (r *Runner) injector(c *Campaign, convSet map[int]struct{}, round int) *injector {
	return &injector{
		opts:    &c.Opts,
		model:   fault.Model{BER: c.BER, Semantics: c.Opts.Semantics},
		round:   rng.New(c.Opts.Seed).Split(uint64(round)),
		batch:   r.Inputs.Shape.N,
		fmt:     r.Inputs.Fmt,
		convSet: convSet,
	}
}

// roundAgree runs one Monte-Carlo round of campaign c against the golden
// run and returns how many evaluation samples agree with the golden
// predictions.
func (r *Runner) roundAgree(w *worker, c *Campaign, convSet map[int]struct{}, round int) int {
	inj := r.injector(c, convSet, round)
	if r.exec.Full || c.Opts.Semantics == fault.NeuronFlip {
		return r.agreement(r.Net.ForwardCtx(w.ec, r.Inputs, inj))
	}
	return r.agreement(r.Net.ForwardDelta(w.ec, r.goldenPlane(w), nil, inj))
}

// agreement counts the evaluation samples whose prediction under logits
// equals the golden one.
func (r *Runner) agreement(logits *tensor.QTensor) int {
	agree := 0
	for i, p := range nn.Argmax(logits) {
		if p == r.golden[i] {
			agree++
		}
	}
	return agree
}

// unit is one flattened (campaign, Monte-Carlo round) work item. The unit
// index space of a batch is a pure function of (cs, rounds) — campaigns in
// order, each contributing `rounds` consecutive units, BER <= 0 campaigns
// contributing none — so every party that can reconstruct the batch agrees
// on which unit an index denotes. That is what makes the space shardable
// across machines (see internal/dist).
type unit struct {
	c     int
	round int
}

// clampRounds mirrors AccuracyBatch's historical behavior: fewer than one
// round means one round. Every unit-space function applies it so Units,
// UnitCounts and Reduce always describe the same flattening.
func clampRounds(rounds int) int {
	if rounds < 1 {
		return 1
	}
	return rounds
}

// flattenUnits builds the unit index space of a batch, skipping BER <= 0
// campaigns (their accuracy is exactly 1 with no faults to sample).
func flattenUnits(cs []Campaign, rounds int) []unit {
	rounds = clampRounds(rounds)
	var units []unit
	for i := range cs {
		if cs[i].BER <= 0 {
			continue
		}
		for round := 0; round < rounds; round++ {
			units = append(units, unit{c: i, round: round})
		}
	}
	return units
}

// Units reports the size of a batch's flattened (campaign, round) unit index
// space — the domain of UnitCounts ranges.
func Units(cs []Campaign, rounds int) int {
	rounds = clampRounds(rounds)
	n := 0
	for i := range cs {
		if cs[i].BER > 0 {
			n += rounds
		}
	}
	return n
}

// UnitCounts executes units [lo, hi) of the batch's flattened index space
// and returns their golden-agreement counts in unit order (result[i] is the
// count of unit lo+i). Each unit's randomness derives solely from its
// (campaign seed, round) identity, so counts for a range are bit-identical
// no matter which process computes them, with how many workers, or alongside
// which other ranges — the property the distributed shard executor rests on.
// The units run on the runner's worker pool. Campaigns that draw the batch's
// first campaign's events at all but a few nodes (a layer-sensitivity batch)
// run as deltas against that campaign's rounds, each captured once and kept
// for the runner's later calls over other ranges of the batch (see
// reference.go); their counts are the same either way.
//
// progress, when non-nil, is called with (0, hi-lo) before the first unit
// and with the number of finished units after every unit. It is
// observational only and may be invoked concurrently from worker
// goroutines, so it must be goroutine-safe.
//
// Canceling ctx stops the scheduler from claiming further units; the call
// returns promptly with partial (meaningless) counts. Callers must check
// ctx.Err() before using the result.
func (r *Runner) UnitCounts(ctx context.Context, cs []Campaign, rounds, lo, hi int, progress func(done, total int)) []int {
	units := flattenUnits(cs, rounds)
	if lo < 0 || hi < lo || hi > len(units) {
		panic(fmt.Sprintf("faultsim: unit range [%d, %d) outside [0, %d)", lo, hi, len(units)))
	}
	for i := range cs {
		if cs[i].Opts.Intensity != nil && len(cs[i].Opts.Intensity) != len(r.Net.Nodes) {
			panic(fmt.Sprintf("faultsim: intensity length %d != %d nodes", len(cs[i].Opts.Intensity), len(r.Net.Nodes)))
		}
	}

	convSet := map[int]struct{}{}
	for _, li := range r.Net.ConvNodes() {
		convSet[li] = struct{}{}
	}

	// Publish the batch total before any unit completes so observers (SSE
	// subscribers, the trace timeline) see 0/total rather than waiting for
	// the first unit to learn the denominator.
	if progress != nil {
		progress(0, hi-lo)
	}

	refs := r.references(cs, units, lo, hi)
	agree := make([]int, hi-lo)
	var completed atomic.Int64
	r.runUnits(ctx, r.exec.Workers, hi-lo, func(w *worker, k int) {
		u := refs.unit(k)
		un := units[lo+u]
		if refs.used(un) {
			agree[u] = r.referenceAgree(w, cs, refs, convSet, un)
		} else {
			agree[u] = r.roundAgree(w, &cs[un.c], convSet, un.round)
		}
		if progress != nil {
			progress(int(completed.Add(1)), hi-lo)
		}
	})
	return agree
}

// Reduce folds a full batch's per-unit agreement counts (len(counts) ==
// Units(cs, rounds), in unit-index order) over an evaluation batch of samples
// images into accuracies in campaign order. The reduction is an
// index-ordered integer sum per campaign followed by one float division, so
// merged shard counts reduce to exactly the bytes a single-process run
// produces. It needs no runner: a coordinator that never executes a unit
// reduces with it too.
func Reduce(cs []Campaign, rounds, samples int, counts []int) []float64 {
	rounds = clampRounds(rounds)
	units := flattenUnits(cs, rounds)
	if len(counts) != len(units) {
		panic(fmt.Sprintf("faultsim: %d counts for %d units", len(counts), len(units)))
	}
	out := make([]float64, len(cs))
	for i := range out {
		out[i] = 1
	}
	sums := make([]int, len(cs))
	for u, un := range units {
		sums[un.c] += counts[u]
	}
	total := rounds * samples
	for i := range cs {
		if cs[i].BER > 0 {
			out[i] = float64(sums[i]) / float64(total)
		}
	}
	return out
}

// AccuracyBatch measures every campaign in cs over the given number of
// Monte-Carlo rounds (each round re-samples all faults over the whole
// evaluation batch) and returns the accuracies in campaign order. It is the
// single-process composition of the shardable primitives: UnitCounts over
// the full unit range, then the index-ordered Reduce — so the returned
// accuracies are bit-identical for any worker count, and identical to any
// sharded execution of the same batch.
//
// Canceling ctx stops the scheduler from claiming further units; the call
// returns promptly with partial (meaningless) accuracies. Callers that can
// be canceled must check ctx.Err() before using the result — every caller
// that caches or publishes results does.
func (r *Runner) AccuracyBatch(ctx context.Context, cs []Campaign, rounds int) []float64 {
	return Reduce(cs, rounds, len(r.golden), r.UnitCounts(ctx, cs, rounds, 0, Units(cs, rounds), nil))
}

// Accuracy measures golden-agreement accuracy at one bit error rate over the
// given number of Monte-Carlo rounds. The rounds run on the runner's worker
// pool.
func (r *Runner) Accuracy(ctx context.Context, ber float64, opts Options, rounds int) float64 {
	return r.AccuracyBatch(ctx, []Campaign{{BER: ber, Opts: opts}}, rounds)[0]
}

// SweepCampaigns builds the campaign batch of a BER sweep: one campaign per
// point, in request order. Every process that shards or reduces a sweep
// reconstructs the identical batch from (bers, opts) via this function, so
// all of them agree on the flattened unit index space.
func SweepCampaigns(bers []float64, opts Options) []Campaign {
	cs := make([]Campaign, len(bers))
	for i, ber := range bers {
		cs[i] = Campaign{BER: ber, Opts: opts}
	}
	return cs
}

// Sweep evaluates accuracy across a BER range. All (BER point, round) units
// run on one worker pool; out[i] always corresponds to bers[i] regardless of
// completion order.
func (r *Runner) Sweep(ctx context.Context, bers []float64, opts Options, rounds int) []Point {
	accs := r.AccuracyBatch(ctx, SweepCampaigns(bers, opts), rounds)
	out := make([]Point, len(bers))
	for i, ber := range bers {
		out[i] = Point{BER: ber, Accuracy: accs[i]}
	}
	return out
}

// Point is one (BER, accuracy) sample of a sweep.
type Point struct {
	BER      float64
	Accuracy float64
}

// LayerSensitivity computes, for every conv node, the accuracy when that
// node alone is fault-free while the rest of the network is injected at the
// given BER (paper Fig. 3), plus the all-faulty baseline. The difference
// accuracy(li fault-free) - baseline is the layer's vulnerability factor
// (paper Section 4.1). The baseline and all per-layer campaigns are
// scheduled as one batch, so the whole analysis saturates the worker pool;
// perLayer is keyed by node index and independent of evaluation order.
func (r *Runner) LayerSensitivity(ctx context.Context, ber float64, opts Options, rounds int) (base float64, perLayer map[int]float64) {
	conv := r.Net.ConvNodes()
	return layerReduce(conv, r.AccuracyBatch(ctx, LayerCampaigns(conv, ber, opts), rounds))
}

// LayerCampaigns builds the campaign batch of a layer-sensitivity analysis
// over the network's conv/FC nodes conv (nn.Network.ConvNodes, or
// models.ConvNodes from the geometry alone): the all-faulty baseline first,
// then one campaign per conv node with that node alone added to the
// fault-free set, in network order. Like SweepCampaigns it is the shared
// batch constructor that coordinator and shard workers both use, so they
// agree on the unit index space.
func LayerCampaigns(conv []int, ber float64, opts Options) []Campaign {
	cs := make([]Campaign, 1+len(conv))
	cs[0] = Campaign{BER: ber, Opts: opts}
	for i, li := range conv {
		o := opts
		o.FaultFree = map[int]bool{li: true}
		for k, v := range opts.FaultFree {
			o.FaultFree[k] = v
		}
		cs[1+i] = Campaign{BER: ber, Opts: o}
	}
	return cs
}

// layerReduce maps a LayerCampaigns(conv, ...) accuracy vector back to
// (baseline, per-conv-node accuracy).
func layerReduce(conv []int, accs []float64) (base float64, perLayer map[int]float64) {
	perLayer = make(map[int]float64, len(conv))
	for i, li := range conv {
		perLayer[li] = accs[1+i]
	}
	return accs[0], perLayer
}

// LayerSensitivityFromCounts reduces a full set of per-unit agreement counts
// for the LayerCampaigns(conv, ber, opts) batch over samples images —
// typically merged from shards — into the same (baseline, per-layer) result
// LayerSensitivity computes, bit-identically.
func LayerSensitivityFromCounts(conv []int, ber float64, opts Options, rounds, samples int, counts []int) (base float64, perLayer map[int]float64) {
	return layerReduce(conv, Reduce(LayerCampaigns(conv, ber, opts), rounds, samples, counts))
}
