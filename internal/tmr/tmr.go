// Package tmr implements the paper's fine-grained triple-modular-redundancy
// protection (Section 4.1): layers are ranked by their vulnerability factor
// (the accuracy recovered when the layer is fault-free), and inside a layer
// only a randomly-chosen fraction of operations is triplicated —
// multiplications first, because the operation-type analysis shows they are
// far more vulnerable — iterating until the accuracy goal is met.
package tmr

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/faultsim"
)

// Plan is a complete protection assignment for a network.
type Plan struct {
	// Protection maps node index to the protected op fractions.
	Protection map[int]fault.Protection
	// Accuracy is the evaluated accuracy of the plan at the campaign BER.
	Accuracy float64
	// Iterations is how many protect-evaluate steps the optimizer used.
	Iterations int
}

// Overhead returns the TMR computing overhead of the plan in extra executed
// operations: every protected op runs two additional times (plus voting,
// which the paper also neglects).
func (p *Plan) Overhead(census []fault.Census) int64 {
	var total float64
	for li, prot := range p.Protection {
		c := census[li]
		total += 2 * (prot.Frac(fault.OpMul)*float64(c.Mul) + prot.Frac(fault.OpAdd)*float64(c.Add))
	}
	return int64(total)
}

// TotalOps returns the unprotected op count of a census list (the
// normalization base for overhead ratios).
func TotalOps(census []fault.Census) int64 {
	var t int64
	for _, c := range census {
		t += c.Total()
	}
	return t
}

// Optimizer searches for the cheapest plan meeting an accuracy target.
type Optimizer struct {
	Runner *faultsim.Runner
	// Opts is the fault campaign the plan must survive (its Protection field
	// is owned by the optimizer).
	Opts faultsim.Options
	// BER is the soft-error rate of the campaign.
	BER float64
	// Rounds is the Monte-Carlo rounds per accuracy evaluation.
	Rounds int
	// VF holds the layer vulnerability factors used for ranking. Populate
	// with Vulnerability (aware mode) or copy another implementation's
	// factors (the paper's WG-Conv-W/O-AFT reuses ST-Conv's analysis).
	VF map[int]float64
	// Step is the op fraction protected per iteration (default 0.125).
	Step float64
	// Initial seeds the search with an existing plan's protection (the
	// target sweep of Fig. 5 warm-starts each goal from the previous one;
	// protection only ever grows with the goal).
	Initial map[int]fault.Protection
	// Policy selects how operations inside a layer are chosen.
	Policy Policy
}

// Policy is the op-selection strategy inside a layer.
type Policy int

const (
	// MulFirst protects multiplications before any addition — the paper's
	// heuristic, justified by the Fig. 4 operation-type analysis.
	MulFirst Policy = iota
	// Uniform protects both op classes in lockstep, the policy-ablation
	// baseline showing what ignoring the operation-type analysis costs.
	Uniform
)

// Vulnerability measures each conv layer's vulnerability factor: the
// accuracy when the layer is fault-free minus the all-faulty baseline
// (paper Section 4.1, derived from the Fig. 3 analysis).
func Vulnerability(ctx context.Context, r *faultsim.Runner, ber float64, opts faultsim.Options, rounds int) map[int]float64 {
	base, per := r.LayerSensitivity(ctx, ber, opts, rounds)
	vf := make(map[int]float64, len(per))
	for li, acc := range per {
		vf[li] = acc - base
	}
	return vf
}

// rankedLayers returns conv nodes ordered by descending vulnerability.
func (o *Optimizer) rankedLayers() []int {
	layers := o.Runner.Net.ConvNodes()
	sort.SliceStable(layers, func(i, j int) bool {
		return o.VF[layers[i]] > o.VF[layers[j]]
	})
	return layers
}

// Optimize grows protection until the accuracy target is reached or the
// whole network is protected. It returns the final plan; Plan.Accuracy
// records the achieved accuracy (which may be below target only in the
// fully-protected corner case, where it equals the fault-free accuracy).
// Canceling ctx abandons the search; the returned plan is partial and the
// caller must check ctx.Err() before trusting it.
func (o *Optimizer) Optimize(ctx context.Context, target float64, maxIters int) *Plan {
	step := o.Step
	if step <= 0 {
		step = 0.125
	}
	if maxIters <= 0 {
		maxIters = 1 << 20
	}
	layers := o.rankedLayers()
	if len(layers) == 0 {
		panic("tmr: network has no conv layers")
	}
	prot := map[int]fault.Protection{}
	for li, p := range o.Initial {
		prot[li] = p
	}
	opts := o.Opts
	opts.Protection = prot
	// The stop decision is confirmed with an independently-seeded
	// evaluation so a single lucky Monte-Carlo draw cannot end the search
	// prematurely; the two draws are averaged (taking the minimum would
	// systematically inflate the requirement and over-protect).
	confirmOpts := opts
	confirmOpts.Seed ^= 0xC0FFEE

	plan := &Plan{Protection: prot}
	// When the pool has enough idle workers to absorb both campaigns'
	// rounds in one wave, the main and confirmation draws are submitted as
	// one batch so the confirmation rides along for free; otherwise the
	// confirmation stays lazy, only evaluated once the main draw reaches
	// the target (it is discarded below target, so computing it eagerly on
	// a saturated pool would nearly double the search cost). Both paths
	// return identical values.
	rounds := o.Rounds
	if rounds < 1 {
		rounds = 1
	}
	batchEval := o.Runner.Workers() >= 2*rounds
	measure := func() float64 {
		if batchEval {
			accs := o.Runner.AccuracyBatch(ctx, []faultsim.Campaign{
				{BER: o.BER, Opts: opts},
				{BER: o.BER, Opts: confirmOpts},
			}, o.Rounds)
			if accs[0] < target {
				return accs[0]
			}
			return (accs[0] + accs[1]) / 2
		}
		acc := o.Runner.Accuracy(ctx, o.BER, opts, o.Rounds)
		if acc < target {
			return acc
		}
		confirm := o.Runner.Accuracy(ctx, o.BER, confirmOpts, o.Rounds)
		return (acc + confirm) / 2
	}
	acc := measure()
	cursor := 0
	for iter := 0; acc < target && iter < maxIters && ctx.Err() == nil; iter++ {
		li := layers[cursor]
		p := prot[li]
		switch {
		case o.Policy == Uniform && (p.MulFrac < 1 || p.AddFrac < 1):
			p.MulFrac = min1(p.MulFrac + step)
			p.AddFrac = min1(p.AddFrac + step)
		case o.Policy == MulFirst && p.MulFrac < 1:
			// Multiplications first: highest per-op payoff.
			p.MulFrac = min1(p.MulFrac + step)
		case o.Policy == MulFirst && p.AddFrac < 1:
			p.AddFrac = min1(p.AddFrac + step)
		default:
			// Layer saturated; move to the next most vulnerable one.
			if cursor+1 < len(layers) {
				cursor++
				continue
			}
			// Everything protected: accuracy equals fault-free.
			plan.Accuracy = acc
			plan.Iterations = iter
			return plan
		}
		prot[li] = p
		acc = measure()
		plan.Iterations = iter + 1
	}
	plan.Accuracy = acc
	return plan
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// ApplyFractions builds a plan from an existing plan's per-layer fractions,
// mapped onto (possibly different) node indices by position in the conv-node
// list. This models the paper's WG-Conv-W/O-AFT: the protection option is
// decided on the standard-convolution network and replayed verbatim on the
// winograd one.
func ApplyFractions(src *Plan, srcConvNodes, dstConvNodes []int) (*Plan, error) {
	if len(srcConvNodes) != len(dstConvNodes) {
		return nil, fmt.Errorf("tmr: conv node lists differ: %d vs %d", len(srcConvNodes), len(dstConvNodes))
	}
	pos := make(map[int]int, len(srcConvNodes))
	for i, li := range srcConvNodes {
		pos[li] = i
	}
	out := &Plan{Protection: map[int]fault.Protection{}}
	for li, p := range src.Protection {
		i, ok := pos[li]
		if !ok {
			return nil, fmt.Errorf("tmr: protected node %d is not a conv node", li)
		}
		out.Protection[dstConvNodes[i]] = p
	}
	return out, nil
}
