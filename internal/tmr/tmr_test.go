package tmr

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/fixed"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/winograd"
)

func rig(t *testing.T, kind nn.EngineKind) (*faultsim.Runner, []fault.Census, faultsim.Options) {
	t.Helper()
	arch := models.VGG19(models.Tiny)
	full := models.VGG19(models.Options{})
	cfg := nn.Config{Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 21}
	net := models.Build(arch, cfg, 1)
	set := dataset.ForModel("cifar100", 10, arch.In.H, 5, fixed.Int16)
	runner := faultsim.New(net, set.Batch(0, 10), faultsim.Exec{})
	intensity := models.IntensityFor(arch, full, kind, winograd.F2)
	opts := faultsim.Options{Semantics: fault.OperandFlip, Seed: 11, Intensity: intensity}
	return runner, models.Census(arch, kind, winograd.F2), opts
}

func TestOverheadAccounting(t *testing.T) {
	census := []fault.Census{{Mul: 100, Add: 200}, {Mul: 50, Add: 50}}
	p := &Plan{Protection: map[int]fault.Protection{
		0: {MulFrac: 1, AddFrac: 0.5},
		1: {MulFrac: 0.5},
	}}
	// 2*(100 + 100 + 25) = 450
	if got := p.Overhead(census); got != 450 {
		t.Errorf("overhead = %d, want 450", got)
	}
	if got := TotalOps(census); got != 400 {
		t.Errorf("TotalOps = %d, want 400", got)
	}
	empty := &Plan{Protection: map[int]fault.Protection{}}
	if empty.Overhead(census) != 0 {
		t.Error("empty plan must have zero overhead")
	}
}

func TestVulnerabilityFactors(t *testing.T) {
	runner, _, opts := rig(t, nn.Direct)
	vf := Vulnerability(context.Background(), runner, 2e-9, opts, 2)
	if len(vf) != len(runner.Net.ConvNodes()) {
		t.Fatalf("vf entries %d, want %d", len(vf), len(runner.Net.ConvNodes()))
	}
	anyPositive := false
	for _, v := range vf {
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("no layer has positive vulnerability factor")
	}
}

func TestOptimizeReachesTarget(t *testing.T) {
	runner, census, opts := rig(t, nn.Direct)
	const ber = 5e-9
	o := &Optimizer{
		Runner: runner,
		Opts:   opts,
		BER:    ber,
		Rounds: 2,
		VF:     Vulnerability(context.Background(), runner, ber, opts, 2),
		Step:   0.25,
	}
	unprotected := runner.Accuracy(context.Background(), ber, opts, 2)
	target := unprotected + (1-unprotected)*0.6
	plan := o.Optimize(context.Background(), target, 0)
	if plan.Accuracy < target {
		t.Errorf("plan accuracy %v below target %v", plan.Accuracy, target)
	}
	oh := plan.Overhead(census)
	if oh <= 0 {
		t.Error("plan has zero overhead but improved accuracy")
	}
	full := 2 * TotalOps(census)
	if oh >= full {
		t.Errorf("plan overhead %d not below full TMR %d", oh, full)
	}
}

func TestOptimizeZeroTargetIsFree(t *testing.T) {
	runner, census, opts := rig(t, nn.Direct)
	o := &Optimizer{Runner: runner, Opts: opts, BER: 1e-9, Rounds: 1,
		VF: map[int]float64{}, Step: 0.25}
	plan := o.Optimize(context.Background(), 0, 0)
	if plan.Overhead(census) != 0 || plan.Iterations != 0 {
		t.Errorf("zero target should need no protection: %+v", plan)
	}
}

func TestOptimizeProtectsMulsFirst(t *testing.T) {
	runner, _, opts := rig(t, nn.Direct)
	const ber = 5e-9
	o := &Optimizer{Runner: runner, Opts: opts, BER: ber, Rounds: 2,
		VF: Vulnerability(context.Background(), runner, ber, opts, 2), Step: 0.25}
	unprotected := runner.Accuracy(context.Background(), ber, opts, 2)
	plan := o.Optimize(context.Background(), unprotected+(1-unprotected)*0.4, 0)
	for li, p := range plan.Protection {
		if p.AddFrac > 0 && p.MulFrac < 1 {
			t.Errorf("layer %d protects adds (%v) before saturating muls (%v)", li, p.AddFrac, p.MulFrac)
		}
	}
}

func TestApplyFractions(t *testing.T) {
	src := &Plan{Protection: map[int]fault.Protection{3: {MulFrac: 0.5}, 7: {MulFrac: 1, AddFrac: 0.25}}}
	dst, err := ApplyFractions(src, []int{3, 7, 9}, []int{4, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	if dst.Protection[4].MulFrac != 0.5 || dst.Protection[8].AddFrac != 0.25 {
		t.Errorf("fractions not transferred: %+v", dst.Protection)
	}
	if _, err := ApplyFractions(src, []int{3}, []int{4, 5}); err == nil {
		t.Error("length mismatch not caught")
	}
	bad := &Plan{Protection: map[int]fault.Protection{99: {}}}
	if _, err := ApplyFractions(bad, []int{3}, []int{4}); err == nil {
		t.Error("non-conv protected node not caught")
	}
}

// TestWinogradNeedsLessProtection is the Fig. 5 ordering on a small scale:
// to reach the same absolute accuracy, the winograd network needs less TMR
// overhead than the direct one.
func TestWinogradNeedsLessProtection(t *testing.T) {
	stRunner, stCensus, stOpts := rig(t, nn.Direct)
	wgRunner, wgCensus, wgOpts := rig(t, nn.Winograd)
	const ber = 5e-9
	target := 0.9

	stPlan := (&Optimizer{Runner: stRunner, Opts: stOpts, BER: ber, Rounds: 2,
		VF: Vulnerability(context.Background(), stRunner, ber, stOpts, 2), Step: 0.25}).Optimize(context.Background(), target, 0)
	wgPlan := (&Optimizer{Runner: wgRunner, Opts: wgOpts, BER: ber, Rounds: 2,
		VF: Vulnerability(context.Background(), wgRunner, ber, wgOpts, 2), Step: 0.25}).Optimize(context.Background(), target, 0)

	stOH := stPlan.Overhead(stCensus)
	wgOH := wgPlan.Overhead(wgCensus)
	if stOH == 0 {
		t.Skip("direct network already meets target unprotected at this scale")
	}
	if wgOH >= stOH {
		t.Errorf("winograd TMR overhead %d not below direct %d", wgOH, stOH)
	}
}

// TestMulFirstBeatsUniform is the op-selection policy ablation (DESIGN.md
// §6): because multiplications carry nearly all the vulnerability, the
// mul-first heuristic reaches the same accuracy goal with no more (and
// typically far less) protection overhead than protecting both classes in
// lockstep.
func TestMulFirstBeatsUniform(t *testing.T) {
	runner, census, opts := rig(t, nn.Direct)
	const ber = 5e-9
	vf := Vulnerability(context.Background(), runner, ber, opts, 2)
	unprotected := runner.Accuracy(context.Background(), ber, opts, 2)
	target := unprotected + (1-unprotected)*0.5

	mulFirst := (&Optimizer{Runner: runner, Opts: opts, BER: ber, Rounds: 2,
		VF: vf, Step: 0.25, Policy: MulFirst}).Optimize(context.Background(), target, 0)
	uniform := (&Optimizer{Runner: runner, Opts: opts, BER: ber, Rounds: 2,
		VF: vf, Step: 0.25, Policy: Uniform}).Optimize(context.Background(), target, 0)

	mo, uo := mulFirst.Overhead(census), uniform.Overhead(census)
	if mo == 0 && uo == 0 {
		t.Skip("target met without protection at this scale")
	}
	// Allow Monte-Carlo slack; the systematic effect is a large gap.
	if float64(mo) > 1.25*float64(uo) {
		t.Errorf("mul-first overhead %d not competitive with uniform %d", mo, uo)
	}
}

func TestUniformPolicySaturatesBothClasses(t *testing.T) {
	runner, _, opts := rig(t, nn.Direct)
	o := &Optimizer{Runner: runner, Opts: opts, BER: 1e-7, Rounds: 1,
		VF: Vulnerability(context.Background(), runner, 1e-7, opts, 1), Step: 0.5, Policy: Uniform}
	plan := o.Optimize(context.Background(), 0.99, 40)
	for li, p := range plan.Protection {
		if p.MulFrac != p.AddFrac {
			t.Errorf("layer %d: uniform policy diverged: mul %v add %v", li, p.MulFrac, p.AddFrac)
		}
	}
}
