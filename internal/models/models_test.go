package models

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fixed"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

func cfg(kind nn.EngineKind) nn.Config {
	return nn.Config{Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 42}
}

func TestAllModelsBuildAndRun(t *testing.T) {
	for name, arch := range Zoo(Tiny) {
		t.Run(name, func(t *testing.T) {
			net := Build(arch, cfg(nn.Direct), 1)
			in := tensor.Quantize(
				tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(1), 0.5),
				fixed.Int16)
			out := net.Forward(in, nil)
			if out.Shape.C != arch.Classes {
				t.Errorf("output classes = %d, want %d", out.Shape.C, arch.Classes)
			}
			if out.Shape.H != 1 || out.Shape.W != 1 {
				t.Errorf("output not flat: %v", out.Shape)
			}
		})
	}
}

func TestWinogradVariantMatchesDirect(t *testing.T) {
	for name, arch := range Zoo(Tiny) {
		t.Run(name, func(t *testing.T) {
			st := Build(arch, cfg(nn.Direct), 1)
			wg := Build(arch, cfg(nn.Winograd), 1)
			in := tensor.Quantize(
				tensor.New(tensor.Shape{N: 2, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
				fixed.Int16)
			oa := st.Forward(in, nil)
			ob := wg.Forward(in, nil)
			// The engines agree up to a few LSB of accumulated quantization
			// noise (paper: lossless conversion). Argmax may still flip when
			// random-weight logit margins are sub-LSB, so the check is on
			// logit closeness, not predictions.
			var maxd int32
			var meanAbs float64
			for i := range oa.Data {
				d := oa.Data[i] - ob.Data[i]
				if d < 0 {
					d = -d
				}
				if d > maxd {
					maxd = d
				}
				v := oa.Data[i]
				if v < 0 {
					v = -v
				}
				meanAbs += float64(v)
			}
			meanAbs /= float64(len(oa.Data))
			limit := 0.2 * meanAbs
			if limit < 16 {
				limit = 16
			}
			if float64(maxd) > limit {
				t.Errorf("direct and winograd logits diverge by %d LSB (limit %.0f, mean |logit| %.0f)",
					maxd, limit, meanAbs)
			}
		})
	}
}

func TestValidateGeometry(t *testing.T) {
	// Every zoo model must validate at experiment scales and even at absurdly
	// small resolutions (the "same"-padded stacks keep spatial dims >= 1).
	for _, opts := range []Options{Tiny, Quick, {WidthMult: 0.125, InputSize: 1}} {
		for name, arch := range Zoo(opts) {
			if err := ValidateGeometry(arch); err != nil {
				t.Errorf("%s at %+v: unexpected error %v", name, opts, err)
			}
		}
	}

	// A valid-pad convolution on an undersized input must be rejected with a
	// descriptive error instead of panicking inside the engines at forward
	// time ("input too small").
	bad := &Arch{
		Name: "tiny-valid-pad", Dataset: "synthetic", Classes: 2,
		In: tensor.Shape{N: 1, C: 2, H: 2, W: 2},
		Ops: []OpDef{
			{Name: "conv1", Kind: "conv", Inputs: []int{-1}, OutC: 2, K: 3, Stride: 1, Pad: 0},
		},
		Output: 0,
	}
	err := ValidateGeometry(bad)
	if err == nil {
		t.Fatal("collapsing geometry validated")
	}
	if !strings.Contains(err.Error(), "conv1") || !strings.Contains(err.Error(), "too small") {
		t.Errorf("error %q does not name the collapsing node", err)
	}

	empty := &Arch{Name: "empty", In: tensor.Shape{}}
	if ValidateGeometry(empty) == nil {
		t.Error("empty input shape validated")
	}
}

func TestFullScaleCensusMagnitudes(t *testing.T) {
	// Full-scale op counts must be in the ballpark of the published MAC
	// counts: VGG19@CIFAR ~0.4 GMAC, ResNet50@224 ~4.1 GMAC,
	// DenseNet169@224 ~3.4 GMAC, GoogLeNet@32 is the CIFAR adaptation.
	full := Options{}
	checks := []struct {
		name   string
		arch   *Arch
		lo, hi float64 // GMul bounds for the direct engine
	}{
		{"vgg19", VGG19(full), 0.25, 0.55},
		{"resnet50", ResNet50(full), 3.0, 5.0},
		{"densenet169", DenseNet169(full), 2.2, 4.5},
		{"googlenet", GoogLeNet(full), 0.1, 2.0},
	}
	for _, c := range checks {
		mul := float64(TotalCensus(c.arch, nn.Direct, nil).Mul) / 1e9
		if mul < c.lo || mul > c.hi {
			t.Errorf("%s full-scale GMul = %.3f, want in [%v,%v]", c.name, mul, c.lo, c.hi)
		}
	}
}

func TestWinogradCensusReducesMuls(t *testing.T) {
	for name, arch := range Zoo(Quick) {
		st := TotalCensus(arch, nn.Direct, nil)
		wg := TotalCensus(arch, nn.Winograd, winograd.F2)
		if wg.Mul >= st.Mul {
			t.Errorf("%s: winograd muls %d >= direct muls %d", name, wg.Mul, st.Mul)
		}
		ratio := float64(st.Mul) / float64(wg.Mul)
		// Networks mix 1x1 (no winograd) and 3x3+ convs; overall reduction
		// must be visible but below the pure-3x3 2.25x.
		if ratio < 1.05 || ratio > 2.5 {
			t.Errorf("%s: mul reduction ratio %.2f out of plausible range", name, ratio)
		}
	}
}

func TestCensusMatchesBuiltNetwork(t *testing.T) {
	// Geometry-only census must agree exactly with the instantiated network.
	for name, arch := range Zoo(Tiny) {
		for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
			net := Build(arch, cfg(kind), 1)
			in := tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}
			got := Census(arch, kind, winograd.F2)
			want := net.LayerCensus(in)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: node count %d vs %d", name, kind, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s/%v node %d (%s): census %v != %v",
						name, kind, i, arch.Ops[i].Name, got[i], want[i])
				}
			}
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	arch := VGG19(Tiny)
	a := Build(arch, cfg(nn.Direct), 1)
	b := Build(arch, cfg(nn.Direct), 1)
	in := tensor.Quantize(
		tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(3), 0.5),
		fixed.Int16)
	oa, ob := a.Forward(in, nil), b.Forward(in, nil)
	for i := range oa.Data {
		if oa.Data[i] != ob.Data[i] {
			t.Fatal("two builds from the same seed differ")
		}
	}
}

// TestParallelBuildIsExact: the layers' weights do not depend on the
// schedule that draws them, so a build on four workers gives every node
// the same activation as a serial build, byte for byte, for every zoo
// model on both engines; and the walk's geometry-only shapes are the built
// ops' own.
func TestParallelBuildIsExact(t *testing.T) {
	for name, arch := range Zoo(Tiny) {
		for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
			serial, parallel := Build(arch, cfg(kind), 1), Build(arch, cfg(kind), 4)
			in := tensor.Quantize(
				tensor.New(tensor.Shape{N: 2, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(4), 0.5),
				fixed.Int16)
			want := serial.CapturePlane(serial.NewExecContext(), in)
			got := parallel.CapturePlane(parallel.NewExecContext(), in)
			shapes := Shapes(arch)
			for i := range serial.Nodes {
				w, g := want.Act(i), got.Act(i)
				if g.Shape != w.Shape || g.Fmt != w.Fmt || !slices.Equal(g.Data, w.Data) {
					t.Fatalf("%s/%v node %s: a 4-worker build's activation differs from a serial build's", name, kind, serial.Nodes[i].Name)
				}
				if sh := shapes[i]; sh.C != w.Shape.C || sh.H != w.Shape.H || sh.W != w.Shape.W {
					t.Errorf("%s/%v node %s: geometry gives %v, the op %v", name, kind, serial.Nodes[i].Name, sh, w.Shape)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		if _, err := ByName(name, Tiny); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("alexnet", Tiny); err == nil {
		t.Error("unknown model did not error")
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{WidthMult: 0.25}
	if o.scaleC(64) != 16 || o.scaleC(4) != 2 || o.scaleC(1) != 2 {
		t.Error("scaleC wrong")
	}
	full := Options{}
	if full.scaleC(64) != 64 {
		t.Error("zero WidthMult must mean full width")
	}
	if full.inputSize(224) != 224 || (Options{InputSize: 32}).inputSize(224) != 32 {
		t.Error("inputSize wrong")
	}
}

func TestVGG19LayerCount(t *testing.T) {
	arch := VGG19(Options{})
	convs := 0
	for _, op := range arch.Ops {
		if op.Kind == "conv" {
			convs++
		}
	}
	if convs != 16 {
		t.Errorf("VGG19 conv layers = %d, want 16", convs)
	}
}

func TestDenseNet169LayerCount(t *testing.T) {
	arch := DenseNet169(Options{})
	convs := 0
	for _, op := range arch.Ops {
		if op.Kind == "conv" {
			convs++
		}
	}
	// 1 stem + 2*(6+12+32+32) dense + 3 transitions = 168 convs (+1 fc = 169).
	if convs != 168 {
		t.Errorf("DenseNet169 conv layers = %d, want 168", convs)
	}
}

func TestResNet50LayerCount(t *testing.T) {
	arch := ResNet50(Options{})
	convs := 0
	for _, op := range arch.Ops {
		if op.Kind == "conv" {
			convs++
		}
	}
	// 1 stem + 3*(3+4+6+3) block convs + 4 downsamples = 53 (+1 fc = 54).
	if convs != 53 {
		t.Errorf("ResNet50 conv layers = %d, want 53", convs)
	}
}
