package winograd

import (
	"fmt"
	"testing"

	"repro/internal/conv"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func randT(seed uint64, s tensor.Shape, std float64) *tensor.Tensor {
	return tensor.New(s).Random(rng.New(seed), std)
}

func TestTileDerivedCounts(t *testing.T) {
	if F2.T() != 4 || F4.T() != 6 {
		t.Fatal("tile T wrong")
	}
	if F2.InputAdds() != 32 {
		t.Errorf("F2 InputAdds = %d, want 32 (Lavin)", F2.InputAdds())
	}
	if F2.OutputAdds() != 24 {
		t.Errorf("F2 OutputAdds = %d, want 24", F2.OutputAdds())
	}
	if F2.MulsPerTileChannel() != 16 || F4.MulsPerTileChannel() != 36 {
		t.Error("Hadamard mul counts wrong")
	}
	// F4: BT rows nnz = 3,4,4,4,4,3 -> rowAdds = 2+3+3+3+3+2 = 16; IT = 2*6*16.
	if F4.InputAdds() != 192 {
		t.Errorf("F4 InputAdds = %d, want 192", F4.InputAdds())
	}
	// F4: AT rows nnz = 5,4,4,6... rows: {1,1,1,1,1,0}=5, {0,1,-1,2,-2,0}=4,
	// {0,1,1,4,4,0}=4, {0,1,-1,8,-8,1}=5 -> rowAdds = 4+3+3+4 = 14; OT = (6+4)*14.
	if F4.OutputAdds() != 140 {
		t.Errorf("F4 OutputAdds = %d, want 140", F4.OutputAdds())
	}
}

func TestFloatWinogradMatchesDirect(t *testing.T) {
	for _, tile := range Tiles {
		t.Run(tile.Name, func(t *testing.T) {
			in := randT(1, tensor.Shape{N: 2, C: 3, H: 13, W: 11}, 1)
			w := randT(2, tensor.Shape{N: 4, C: 3, H: 3, W: 3}, 0.5)
			bias := []float64{0.1, -0.2, 0.3, 0}
			for _, pad := range []int{0, 1} {
				got := ForwardFloat(in, w, bias, pad, tile)
				want := conv.ForwardFloat(in, w, bias, 1, pad)
				if got.Shape != want.Shape {
					t.Fatalf("pad %d: shape %v != %v", pad, got.Shape, want.Shape)
				}
				if d := tensor.MaxAbsDiff(got, want); d > 1e-9 {
					t.Errorf("pad %d: winograd/direct diff %v", pad, d)
				}
			}
		})
	}
}

func TestTransformFilterF2Exact(t *testing.T) {
	// For F2 the filter transform of the identity-center kernel is known.
	g := []float64{0, 0, 0, 0, 1, 0, 0, 0, 0}
	u := TransformFilter(F2, g)
	// U = G g G^T with g = e22: column 2 of G outer column 2 of G:
	// Gcol2 = [0, .5, -.5, 0] -> U[i][j] = Gcol2[i]*Gcol2[j].
	want := []float64{
		0, 0, 0, 0,
		0, 0.25, -0.25, 0,
		0, -0.25, 0.25, 0,
		0, 0, 0, 0,
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("U[%d] = %v, want %v", i, u[i], want[i])
		}
	}
}

// TestNewParamsAllocsFlat: NewParams transforms every kernel of a layer into
// one reused buffer pair, so its allocation count does not grow with
// outC·inC, and its UT is each kernel's TransformFilter quantized with
// FracExtra guard bits, stored position-major.
func TestNewParamsAllocsFlat(t *testing.T) {
	for _, tile := range []*Tile{F2, F4} {
		small := randT(5, tensor.Shape{N: 1, C: 1, H: 3, W: 3}, 0.5)
		large := randT(6, tensor.Shape{N: 16, C: 12, H: 3, W: 3}, 0.5)
		a := testing.AllocsPerRun(5, func() { NewParams(small, tile, fixed.Int16) })
		b := testing.AllocsPerRun(5, func() { NewParams(large, tile, fixed.Int16) })
		if b != a {
			t.Errorf("%s: NewParams allocates %v times for 1x1 channels and %v for 16x12", tile.Name, a, b)
		}

		p := NewParams(large, tile, fixed.Int16)
		scale := float64(int64(1) << uint(fixed.Int16.Frac+tile.FracExtra))
		outC, inC := large.Shape.N, large.Shape.C
		for o := 0; o < outC; o++ {
			for c := 0; c < inC; c++ {
				g := make([]float64, 9)
				for k := range g {
					g[k] = large.At(o, c, k/3, k%3)
				}
				for i, v := range TransformFilter(tile, g) {
					s := v * scale
					want := int32(s + 0.5)
					if s < 0 {
						want = int32(s - 0.5)
					}
					if got := p.UT[(i*outC+o)*inC+c]; got != want {
						t.Fatalf("%s: UT at (pos %d, out %d, in %d) = %d, want %d", tile.Name, i, o, c, got, want)
					}
				}
			}
		}
	}
}

// quantized layer vs float direct reference, for various kernel/stride combos
// exercising the DWM decomposition.
func TestQuantizedLayerMatchesReference(t *testing.T) {
	cases := []struct {
		name           string
		k, stride, pad int
		units          int
	}{
		{"3x3-s1-p1", 3, 1, 1, 1},
		{"3x3-s1-p0", 3, 1, 0, 1},
		{"5x5-s1-p2", 5, 1, 2, 4},
		{"7x7-s2-p3", 7, 2, 3, 9},
		{"3x3-s2-p1", 3, 2, 1, 4},
		{"1x1-s1-p0", 1, 1, 0, 1},
		{"2x2-s2-p0", 2, 2, 0, 4},
	}
	for _, tile := range Tiles {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", tile.Name, c.name), func(t *testing.T) {
				inF := randT(3, tensor.Shape{N: 1, C: 3, H: 14, W: 14}, 1)
				wF := randT(4, tensor.Shape{N: 4, C: 3, H: c.k, W: c.k}, 0.4)
				bias := []float64{0.5, -0.5, 0.25, 0}
				l := NewLayer(wF, bias, c.stride, c.pad, tile, fixed.Int16, fixed.Int16)
				if got := l.Units(); got != c.units {
					t.Fatalf("Units() = %d, want %d", got, c.units)
				}
				inQ := tensor.Quantize(inF, fixed.Int16)
				got := tensor.Dequantize(l.Forward(inQ))
				want := conv.ForwardFloat(inF, wF, bias, c.stride, c.pad)
				if got.Shape != want.Shape {
					t.Fatalf("shape %v != %v", got.Shape, want.Shape)
				}
				// F4's larger BT/AT constants amplify the transformed-weight
				// rounding error, so its tolerance is proportionally wider.
				tileFactor := 8.0
				if tile == F4 {
					tileFactor = 48.0
				}
				k := float64(3 * c.k * c.k)
				bound := k * tileFactor * fixed.Int16.Scale()
				if d := tensor.MaxAbsDiff(got, want); d > bound {
					t.Errorf("max diff %v exceeds %v", d, bound)
				}
			})
		}
	}
}

func TestWinogradVsDirectQuantizedAgree(t *testing.T) {
	// The two engines quantize independently but must agree within a few LSB:
	// this is the "lossless conversion" premise of the paper (Section 3.1).
	inF := randT(5, tensor.Shape{N: 1, C: 8, H: 16, W: 16}, 1)
	wF := randT(6, tensor.Shape{N: 8, C: 8, H: 3, W: 3}, 0.3)
	inQ := tensor.Quantize(inF, fixed.Int16)
	wg := NewLayer(wF, nil, 1, 1, F2, fixed.Int16, fixed.Int16)
	st := conv.NewParams(wF, nil, 1, 1, fixed.Int16, fixed.Int16)
	a := tensor.Dequantize(wg.Forward(inQ))
	b := tensor.Dequantize(conv.Forward(inQ, st))
	if d := tensor.MaxAbsDiff(a, b); d > 100*fixed.Int16.Scale() {
		t.Errorf("winograd and direct quantized outputs diverge: %v", d)
	}
}

func TestCensusCountsF2(t *testing.T) {
	// Single 3x3 s1 layer, C=2, OC=3, input 6x6 pad 1 -> out 6x6, tiles 3x3=9.
	w := randT(7, tensor.Shape{N: 3, C: 2, H: 3, W: 3}, 0.5)
	l := NewLayer(w, nil, 1, 1, F2, fixed.Int16, fixed.Int16)
	in := tensor.Shape{N: 1, C: 2, H: 6, W: 6}
	c := l.Census(in)
	nt := int64(9)
	wantMul := nt * 3 * 2 * 16
	if c.Mul != wantMul {
		t.Errorf("muls = %d, want %d", c.Mul, wantMul)
	}
	it := nt * 2 * 32
	ca := nt * 3 * 1 * 16
	ot := nt * 3 * 24
	if c.Add != it+ca+ot {
		t.Errorf("adds = %d, want %d", c.Add, it+ca+ot)
	}
}

func TestCensusWithBiasAndDWM(t *testing.T) {
	w := randT(8, tensor.Shape{N: 2, C: 2, H: 5, W: 5}, 0.5)
	bias := []float64{1, 2}
	l := NewLayer(w, bias, 1, 2, F2, fixed.Int16, fixed.Int16)
	in := tensor.Shape{N: 1, C: 2, H: 8, W: 8}
	out := l.OutShape(in)
	if out != (tensor.Shape{N: 1, C: 2, H: 8, W: 8}) {
		t.Fatalf("out shape %v", out)
	}
	c := l.Census(in)
	// 4 units; each unit sees a 10x10 gathered input -> out 8x8, tiles 4x4=16.
	unitIn := l.unitInShape(in)
	var want int64
	for range l.units {
		want += l.units[0].p.Census(unitIn).Mul
	}
	if c.Mul != want {
		t.Errorf("muls = %d, want %d", c.Mul, want)
	}
	// Summation adds: (4-1) partials + 1 bias per output element.
	sumAdds := int64(out.Elems()) * 4
	var unitAdds int64
	for _, u := range l.units {
		unitAdds += u.p.Census(unitIn).Add
	}
	if c.Add != unitAdds+sumAdds {
		t.Errorf("adds = %d, want %d", c.Add, unitAdds+sumAdds)
	}
}

func TestMulReductionVsDirect(t *testing.T) {
	// F2 must cut multiplications by ~2.25x on an aligned 3x3 layer.
	w := randT(9, tensor.Shape{N: 16, C: 16, H: 3, W: 3}, 0.2)
	in := tensor.Shape{N: 1, C: 16, H: 16, W: 16}
	wg := NewLayer(w, nil, 1, 1, F2, fixed.Int16, fixed.Int16)
	st := conv.NewParams(w, nil, 1, 1, fixed.Int16, fixed.Int16)
	wgC, stC := wg.Census(in), st.Census(in)
	ratio := float64(stC.Mul) / float64(wgC.Mul)
	if ratio < 2.0 || ratio > 2.5 {
		t.Errorf("mul reduction ratio = %v, want ~2.25", ratio)
	}
	// And more additions relative to its own muls.
	if wgC.Add <= wgC.Mul {
		t.Errorf("winograd should be addition-dominated: mul %d add %d", wgC.Mul, wgC.Add)
	}
	_ = stC
}

func TestCensusForMatchesLayerCensus(t *testing.T) {
	// The geometry-only census must agree exactly with the materialized
	// layer's census for every decomposition shape.
	cases := []struct{ k, stride, pad int }{
		{3, 1, 1}, {5, 1, 2}, {7, 2, 3}, {3, 2, 1}, {1, 1, 0}, {2, 2, 0},
	}
	in := tensor.Shape{N: 2, C: 3, H: 14, W: 14}
	for _, tile := range Tiles {
		for _, c := range cases {
			w := randT(11, tensor.Shape{N: 4, C: 3, H: c.k, W: c.k}, 0.3)
			for _, bias := range []bool{true, false} {
				var bs []float64
				if bias {
					bs = make([]float64, 4)
				}
				l := NewLayer(w, bs, c.stride, c.pad, tile, fixed.Int16, fixed.Int16)
				got := CensusFor(in, 4, c.k, c.k, c.stride, c.pad, bias, tile)
				want := l.Census(in)
				if got != want {
					t.Errorf("%s k%d s%d bias=%v: CensusFor %v != Census %v",
						tile.Name, c.k, c.stride, bias, got, want)
				}
			}
		}
	}
}
