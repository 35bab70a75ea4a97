package winofault

import (
	"context"
	"fmt"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// Plan is the execution plan of one campaign, shared by every path that runs
// it: Run in-process (the service, wfsim, the examples), the fleet
// coordinator and its shard workers. A campaign is a sequence of phases —
// the BER sweep, then, when layer sensitivity is requested, the layer batch
// at the sweep's middle BER (BERs[len/2], the wfsim -layers convention).
// Each phase flattens to a (campaign, round) unit index space that is a
// pure function of the request (see internal/faultsim), so any split of it
// into ranges, computed by any process with any worker count, reduces to
// the same bytes as one in-process run over [0, n).
//
// A plan is a description and an executor. The description — the phases,
// their unit totals and campaign batches, and all Reduce reads — follows
// from the request and the architecture's geometry, so Phases, CheckCounts
// and Reduce never need more. The executor is the system's network, its
// evaluation set and its golden pass: a plan from System.Plan shares its
// built system's, and a plan from NewPlan builds one on its first Counts or
// Run. So a fleet coordinator plans every campaign, but draws weights and
// runs a golden pass only for a shard it executes itself.
type Plan struct {
	sys     *System
	phases  []Phase
	batches [][]faultsim.Campaign // per phase
	mid     float64               // the layers phase's BER
}

// Phase is one unit batch of a Plan.
type Phase struct {
	// Name is "sweep" or "layers".
	Name string
	// Units is the size of the phase's unit index space: the domain of
	// Counts ranges and the required length of a Reduce counts slice.
	Units int
}

// NewPlan returns the execution plan of a campaign request, protection plan
// included. It rejects every request New would, but builds nothing: the
// plan's first Counts or Run builds its executor.
func NewPlan(req CampaignRequest) (*Plan, error) {
	cfg, err := req.SystemConfig()
	if err != nil {
		return nil, err
	}
	sys, err := describe(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.SetProtection(req.Protection); err != nil {
		return nil, err
	}
	return sys.Plan(req.BERs, req.Layers)
}

// Plan returns the execution plan of a sweep over bers on this system, plus
// the layer-sensitivity phase at the middle BER when layers is set.
func (s *System) Plan(bers []float64, layers bool) (*Plan, error) {
	// The unit-space contract treats BER <= 0 campaigns as exactly
	// fault-free, which a hardware scenario is not, so they would lie.
	for _, ber := range bers {
		if s.opts.HW != nil && ber <= 0 {
			return nil, fmt.Errorf("winofault: hardware scenarios need positive BERs, got %v", ber)
		}
	}
	p := &Plan{sys: s}
	p.add("sweep", faultsim.SweepCampaigns(bers, s.opts))
	if layers {
		if len(bers) == 0 {
			return nil, fmt.Errorf("winofault: layer sensitivity needs at least one BER")
		}
		p.mid = bers[len(bers)/2]
		p.add("layers", faultsim.LayerCampaigns(s.conv, p.mid, s.opts))
	}
	return p, nil
}

func (p *Plan) add(name string, cs []faultsim.Campaign) {
	p.phases = append(p.phases, Phase{Name: name, Units: faultsim.Units(cs, p.sys.cfg.Rounds)})
	p.batches = append(p.batches, cs)
}

// Phases lists the plan's phases in execution order; phase indices in the
// other methods refer to this order.
func (p *Plan) Phases() []Phase { return append([]Phase(nil), p.phases...) }

// Run executes the whole plan in this process, each phase as the one unit
// range [0, n) traced as a "phase" span (path=local) on obs.From(ctx), after
// the executor's "build" span when Run builds it. progress, when non-nil,
// observes (phase, done, total) after every finished unit and may be called
// concurrently. When ctx is canceled the partial result is discarded and
// ctx.Err() is returned.
func (p *Plan) Run(ctx context.Context, progress func(phase, done, total int)) (*CampaignResult, error) {
	tr := obs.From(ctx).Trace
	p.sys.executor(ctx)
	var res CampaignResult
	for i, phase := range p.phases {
		ph := tr.Start("phase", obs.A("phase", phase.Name), obs.A("path", "local"), obs.A("units", phase.Units))
		var unit func(done, total int)
		if progress != nil {
			unit = func(done, total int) { progress(i, done, total) }
		}
		counts, err := p.Counts(ctx, i, 0, phase.Units, unit)
		if err == nil {
			err = p.Reduce(&res, i, counts)
		}
		if err != nil {
			ph.SetAttr("err", err.Error())
			ph.End()
			return nil, err
		}
		ph.End()
	}
	return &res, nil
}

// Counts executes units [lo, hi) of phase i and returns their
// golden-agreement counts in unit order. Counts for a range are
// bit-identical no matter which process computes them or with how many
// workers. progress, when non-nil, observes (done, hi-lo) after every
// finished unit and may be called concurrently; when nil, the system's
// OnProgress callback does. The plan's first Counts builds its executor
// (see System.executor); concurrent first calls build it once. Ranges
// arrive over the wire, so bad arguments are errors rather than panics;
// when ctx is canceled the partial counts are discarded and ctx.Err() is
// returned.
func (p *Plan) Counts(ctx context.Context, i, lo, hi int, progress func(done, total int)) ([]int, error) {
	if err := p.checkRange(i, lo, hi); err != nil {
		return nil, err
	}
	if progress == nil {
		progress = p.sys.progress
	}
	counts := p.sys.executor(ctx).UnitCounts(ctx, p.batches[i], p.sys.cfg.Rounds, lo, hi, progress)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return counts, nil
}

// Release frees the plan's working state: its runner's warm contexts,
// golden plane and kept reference rounds (faultsim.Runner.Release). The plan
// stays usable; its next Counts captures what it needs again. A plan whose
// executor is not built holds no working state.
func (p *Plan) Release() {
	p.sys.mu.Lock()
	defer p.sys.mu.Unlock()
	if p.sys.runner != nil {
		p.sys.runner.Release()
	}
}

// CheckCounts validates counts computed elsewhere for units [lo, hi) of
// phase i: the range lies inside the phase, there is one count per unit, and
// every count is a possible golden-agreement count in [0, Samples]. A count
// outside that interval would reduce to an accuracy outside [0, 1].
func (p *Plan) CheckCounts(i, lo, hi int, counts []int) error {
	if err := p.checkRange(i, lo, hi); err != nil {
		return err
	}
	if len(counts) != hi-lo {
		return fmt.Errorf("winofault: %d unit counts for %d units", len(counts), hi-lo)
	}
	for k, n := range counts {
		if n < 0 || n > p.sys.cfg.Samples {
			return fmt.Errorf("winofault: unit %d count %d outside [0, %d]", lo+k, n, p.sys.cfg.Samples)
		}
	}
	return nil
}

// checkRange validates a phase index and a unit range inside it.
func (p *Plan) checkRange(i, lo, hi int) error {
	if i < 0 || i >= len(p.phases) {
		return fmt.Errorf("winofault: unknown campaign phase %d", i)
	}
	if units := p.phases[i].Units; lo < 0 || hi < lo || hi > units {
		return fmt.Errorf("winofault: unit range [%d, %d) outside [0, %d)", lo, hi, units)
	}
	return nil
}

// Reduce folds phase i's full, unit-ordered counts — typically merged from
// ranges — into res: the sweep phase sets Points, the layers phase Baseline
// and Layers. The reduction is the same index-ordered integer sum the
// in-process path runs, so the marshaled res is byte-identical to it. Like
// CheckCounts it reads only the plan's description.
func (p *Plan) Reduce(res *CampaignResult, i int, counts []int) error {
	if err := p.checkRange(i, 0, 0); err != nil {
		return err
	}
	if err := p.CheckCounts(i, 0, p.phases[i].Units, counts); err != nil {
		return err
	}
	s := p.sys
	if p.phases[i].Name == "layers" {
		base, per := faultsim.LayerSensitivityFromCounts(s.conv, p.mid, s.opts, s.cfg.Rounds, s.cfg.Samples, counts)
		res.Baseline, res.Layers = base, nil
		for _, li := range s.conv {
			res.Layers = append(res.Layers, LayerSensitivity{
				Layer:             s.arch.Ops[li].Name,
				FaultFreeAccuracy: per[li],
				Vulnerability:     per[li] - base,
				Muls:              s.opts.Intensity[li].Mul,
			})
		}
		return nil
	}
	accs := faultsim.Reduce(p.batches[i], s.cfg.Rounds, s.cfg.Samples, counts)
	res.Points = make([]Point, len(accs))
	for k, c := range p.batches[i] {
		res.Points[k] = Point{BER: c.BER, Accuracy: accs[k]}
	}
	return nil
}
