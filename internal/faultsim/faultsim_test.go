package faultsim

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/winograd"
)

// testRig builds a VGG19-tiny runner pair (direct + winograd) sharing
// weights, plus the full-scale intensity censuses that pin the BER axis.
func testRig(t *testing.T, n int) (st, wg *Runner, stInt, wgInt []fault.Census) {
	t.Helper()
	arch := models.VGG19(models.Tiny)
	full := models.VGG19(models.Options{}) // paper scale: full width, 32x32
	cfg := nn.Config{Kind: nn.Direct, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 7}
	stNet := models.Build(arch, cfg, 1)
	cfg.Kind = nn.Winograd
	wgNet := models.Build(arch, cfg, 1)
	set := dataset.ForModel("cifar100", n, arch.In.H, 99, fixed.Int16)
	imgs := set.Batch(0, n)
	return New(stNet, imgs, Exec{}), New(wgNet, imgs, Exec{}),
		models.IntensityFor(arch, full, nn.Direct, nil),
		models.IntensityFor(arch, full, nn.Winograd, winograd.F2)
}

// with returns a runner over r's network and inputs that executes with e.
func (r *Runner) with(e Exec) *Runner { return New(r.Net, r.Inputs, e) }

func TestZeroBERIsPerfect(t *testing.T) {
	st, _, _, _ := testRig(t, 4)
	if acc := st.Accuracy(context.Background(), 0, Options{Seed: 1}, 2); acc != 1 {
		t.Errorf("accuracy at BER 0 = %v, want 1", acc)
	}
}

func TestAccuracyDegradesWithBER(t *testing.T) {
	st, _, stInt, _ := testRig(t, 8)
	opts := Options{Semantics: fault.OperandFlip, Seed: 2, Intensity: stInt}
	low := st.Accuracy(context.Background(), 1e-11, opts, 4)
	high := st.Accuracy(context.Background(), 1e-7, opts, 4)
	if low < 0.8 {
		t.Errorf("accuracy at BER 1e-11 = %v, want near 1", low)
	}
	if high > low {
		t.Errorf("accuracy did not degrade: %v @1e-11 vs %v @1e-7", low, high)
	}
	if high > 0.6 {
		t.Errorf("accuracy at BER 1e-7 = %v, expected heavy degradation", high)
	}
}

// TestWinogradBeatsDirect is the paper's headline claim (Fig. 2): at equal
// BER, the winograd network retains higher accuracy because it executes
// ~2.25x fewer (vulnerable) multiplications.
func TestWinogradBeatsDirect(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 12)
	var stSum, wgSum float64
	bers := []float64{1e-9, 3e-9, 1e-8}
	for _, ber := range bers {
		stSum += st.Accuracy(context.Background(), ber, Options{Semantics: fault.OperandFlip, Seed: 3, Intensity: stInt}, 6)
		wgSum += wg.Accuracy(context.Background(), ber, Options{Semantics: fault.OperandFlip, Seed: 3, Intensity: wgInt}, 6)
	}
	if wgSum <= stSum {
		t.Errorf("winograd accuracy sum %v not above direct %v", wgSum, stSum)
	}
}

// TestMulMoreVulnerableThanAdd reproduces the Fig. 4 phenomenon: keeping
// multiplications fault-free recovers more accuracy than keeping additions
// fault-free.
func TestMulMoreVulnerableThanAdd(t *testing.T) {
	st, _, stInt, _ := testRig(t, 12)
	const ber = 3e-9
	base := Options{Semantics: fault.OperandFlip, Seed: 4, Intensity: stInt}
	mulFree := base
	mulFree.MulFaultFree = true
	addFree := base
	addFree.AddFaultFree = true
	accMulFree := st.Accuracy(context.Background(), ber, mulFree, 6)
	accAddFree := st.Accuracy(context.Background(), ber, addFree, 6)
	if accMulFree <= accAddFree {
		t.Errorf("fault-free muls (%v) did not beat fault-free adds (%v)", accMulFree, accAddFree)
	}
}

// TestNeuronLevelCannotDistinguish reproduces Fig. 1: under neuron-level
// injection, direct and winograd networks degrade identically.
func TestNeuronLevelCannotDistinguish(t *testing.T) {
	st, wg, _, _ := testRig(t, 12)
	neurons := models.NeuronIntensityFor(models.VGG19(models.Tiny), models.VGG19(models.Options{}))
	for _, ber := range []float64{1e-9, 1e-8} {
		opts := Options{Semantics: fault.NeuronFlip, Seed: 5, NeuronIntensity: neurons}
		a := st.Accuracy(context.Background(), ber, opts, 6)
		b := wg.Accuracy(context.Background(), ber, opts, 6)
		if d := a - b; d > 0.1 || d < -0.1 {
			t.Errorf("BER %v: neuron-level FI separates engines: ST %v vs WG %v", ber, a, b)
		}
	}
}

func TestFaultFreeEverythingIsPerfect(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	ff := map[int]bool{}
	for i := range st.Net.Nodes {
		ff[i] = true
	}
	opts := Options{Semantics: fault.OperandFlip, Seed: 6, Intensity: stInt, FaultFree: ff}
	if acc := st.Accuracy(context.Background(), 1e-7, opts, 3); acc != 1 {
		t.Errorf("fully fault-free accuracy = %v, want 1", acc)
	}
}

func TestFullProtectionIsPerfect(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	prot := map[int]fault.Protection{}
	for i := range st.Net.Nodes {
		prot[i] = fault.Protection{MulFrac: 1, AddFrac: 1}
	}
	opts := Options{Semantics: fault.OperandFlip, Seed: 7, Intensity: stInt, Protection: prot}
	if acc := st.Accuracy(context.Background(), 1e-7, opts, 3); acc != 1 {
		t.Errorf("fully protected accuracy = %v, want 1", acc)
	}
}

func TestProtectionImprovesAccuracy(t *testing.T) {
	st, _, stInt, _ := testRig(t, 12)
	const ber = 1e-8
	unprot := st.Accuracy(context.Background(), ber, Options{Semantics: fault.OperandFlip, Seed: 8, Intensity: stInt}, 6)
	prot := map[int]fault.Protection{}
	for i := range st.Net.Nodes {
		prot[i] = fault.Protection{MulFrac: 0.9, AddFrac: 0.9}
	}
	protected := st.Accuracy(context.Background(), ber, Options{Semantics: fault.OperandFlip, Seed: 8, Intensity: stInt, Protection: prot}, 6)
	if protected < unprot {
		t.Errorf("90%% protection did not help: %v vs %v", protected, unprot)
	}
}

func TestLayerSensitivityShape(t *testing.T) {
	st, _, stInt, _ := testRig(t, 8)
	base, per := st.LayerSensitivity(context.Background(), 3e-9, Options{Semantics: fault.OperandFlip, Seed: 9, Intensity: stInt}, 3)
	if len(per) != len(st.Net.ConvNodes()) {
		t.Fatalf("per-layer results %d, want %d", len(per), len(st.Net.ConvNodes()))
	}
	// Every fault-free-layer accuracy must be >= a slack below base (Monte
	// Carlo noise allows small dips) and at least one should exceed base.
	anyAbove := false
	for li, acc := range per {
		if acc < base-0.25 {
			t.Errorf("layer %d fault-free accuracy %v far below baseline %v", li, acc, base)
		}
		if acc > base {
			anyAbove = true
		}
	}
	if base < 0.99 && !anyAbove {
		t.Error("no layer improved over the all-faulty baseline")
	}
}

func TestDeterministicAccuracy(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	opts := Options{Semantics: fault.OperandFlip, Seed: 10, Intensity: stInt}
	a := st.Accuracy(context.Background(), 1e-8, opts, 3)
	b := st.Accuracy(context.Background(), 1e-8, opts, 3)
	if a != b {
		t.Errorf("same seed produced different accuracies: %v vs %v", a, b)
	}
}

func TestSweep(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	pts := st.Sweep(context.Background(), []float64{0, 1e-9}, Options{Semantics: fault.OperandFlip, Seed: 11, Intensity: stInt}, 2)
	if len(pts) != 2 || pts[0].BER != 0 || pts[0].Accuracy != 1 {
		t.Errorf("sweep malformed: %+v", pts)
	}
}
