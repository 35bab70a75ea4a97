package conv

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// buildLayer constructs a random quantized conv layer plus its float twin.
func buildLayer(t *testing.T, seed uint64, inC, outC, kh, kw, stride, pad int, withBias bool) (*Params, *tensor.Tensor, []float64) {
	t.Helper()
	r := rng.New(seed)
	w := tensor.New(tensor.Shape{N: outC, C: inC, H: kh, W: kw}).Random(r, 0.5)
	var bias []float64
	if withBias {
		bias = make([]float64, outC)
		for i := range bias {
			bias[i] = r.NormFloat64() * 0.2
		}
	}
	p := NewParams(w, bias, stride, pad, fixed.Int16, fixed.Int16)
	return p, w, bias
}

func randInput(seed uint64, n, c, h, w int) (*tensor.Tensor, *tensor.QTensor) {
	in := tensor.New(tensor.Shape{N: n, C: c, H: h, W: w}).Random(rng.New(seed), 1.0)
	return in, tensor.Quantize(in, fixed.Int16)
}

func TestOutShape(t *testing.T) {
	p, _, _ := buildLayer(t, 1, 3, 8, 3, 3, 1, 1, true)
	got := p.OutShape(tensor.Shape{N: 2, C: 3, H: 32, W: 32})
	if got != (tensor.Shape{N: 2, C: 8, H: 32, W: 32}) {
		t.Errorf("same-pad 3x3 shape = %v", got)
	}
	p2, _, _ := buildLayer(t, 2, 3, 8, 7, 7, 2, 3, false)
	got2 := p2.OutShape(tensor.Shape{N: 1, C: 3, H: 224, W: 224})
	if got2 != (tensor.Shape{N: 1, C: 8, H: 112, W: 112}) {
		t.Errorf("7x7/s2 shape = %v", got2)
	}
}

func TestForwardMatchesFloatReference(t *testing.T) {
	for _, cfg := range []struct {
		name                      string
		inC, outC, kh, kw, s, pad int
		h, w                      int
		bias                      bool
	}{
		{"3x3-pad1", 4, 6, 3, 3, 1, 1, 10, 10, true},
		{"1x1", 8, 4, 1, 1, 1, 0, 7, 7, false},
		{"5x5-stride2", 3, 5, 5, 5, 2, 2, 16, 16, true},
		{"7x7-stride2", 3, 4, 7, 7, 2, 3, 20, 20, false},
		{"rect-kernel", 2, 3, 1, 3, 1, 0, 6, 9, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			p, w, bias := buildLayer(t, 10, cfg.inC, cfg.outC, cfg.kh, cfg.kw, cfg.s, cfg.pad, cfg.bias)
			inF, inQ := randInput(11, 2, cfg.inC, cfg.h, cfg.w)
			got := tensor.Dequantize(Forward(inQ, p))
			want := ForwardFloat(inF, w, bias, cfg.s, cfg.pad)
			// Quantization error bound: each product carries <= LSB error from
			// each operand; K products accumulate.
			k := float64(cfg.inC * cfg.kh * cfg.kw)
			bound := k * 3 * fixed.Int16.Scale()
			if d := tensor.MaxAbsDiff(got, want); d > bound {
				t.Errorf("max diff %v exceeds quantization bound %v", d, bound)
			}
		})
	}
}

func TestCensus(t *testing.T) {
	p, _, _ := buildLayer(t, 3, 4, 8, 3, 3, 1, 1, true)
	in := tensor.Shape{N: 1, C: 4, H: 8, W: 8}
	c := p.Census(in)
	outs := int64(8 * 8 * 8)
	k := int64(4 * 3 * 3)
	if c.Mul != outs*k {
		t.Errorf("muls = %d, want %d", c.Mul, outs*k)
	}
	if c.Add != outs*k { // k-1 accumulations + 1 bias
		t.Errorf("adds = %d, want %d", c.Add, outs*k)
	}
	pNoBias, _, _ := buildLayer(t, 3, 4, 8, 3, 3, 1, 1, false)
	if got := pNoBias.Census(in).Add; got != outs*(k-1) {
		t.Errorf("adds without bias = %d, want %d", got, outs*(k-1))
	}
}

func TestForwardFaultyNoEventsEqualsForward(t *testing.T) {
	p, _, _ := buildLayer(t, 4, 3, 5, 3, 3, 1, 1, true)
	_, inQ := randInput(5, 1, 3, 12, 12)
	a := Forward(inQ, p)
	b := ForwardFaulty(inQ, p, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("nil event list changed output")
		}
	}
}

// bruteForceMulResultFlip computes the layer with an explicit per-op flip at
// the given product index by redoing the arithmetic the slow, obvious way.
func bruteForceMulResultFlip(inQ *tensor.QTensor, p *Params, mulIdx int64, bit uint) *tensor.QTensor {
	padded := inQ.Pad2D(p.Pad)
	outShape := p.OutShape(inQ.Shape)
	out := tensor.NewQ(outShape, p.OutFmt)
	bias := p.accumBias(inQ.Fmt)
	shift := inQ.Fmt.Frac + p.Weight.Fmt.Frac - p.OutFmt.Frac
	ws := p.Weight.Shape
	k := int64(ws.C * ws.H * ws.W)
	var op int64
	for n := 0; n < outShape.N; n++ {
		for o := 0; o < outShape.C; o++ {
			for oy := 0; oy < outShape.H; oy++ {
				for ox := 0; ox < outShape.W; ox++ {
					var acc int64
					first := true
					for c := 0; c < ws.C; c++ {
						for ky := 0; ky < ws.H; ky++ {
							for kx := 0; kx < ws.W; kx++ {
								a := int64(padded.At(n, c, oy*p.Stride+ky, ox*p.Stride+kx))
								b := int64(p.Weight.At(o, c, ky, kx))
								prod := a * b
								if op == mulIdx {
									prod = fixed.FlipBit(prod, bit)
								}
								op++
								if first {
									acc = prod
									first = false
								} else {
									acc += prod
								}
							}
						}
					}
					_ = k
					if bias != nil {
						acc += bias[o]
					}
					out.Set(n, o, oy, ox, p.OutFmt.RequantizeShift(acc, shift))
				}
			}
		}
	}
	return out
}

func TestReplayMulResultFlipMatchesBruteForce(t *testing.T) {
	p, _, _ := buildLayer(t, 6, 2, 3, 3, 3, 1, 1, true)
	_, inQ := randInput(7, 1, 2, 6, 6)
	census := p.Census(inQ.Shape)
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		mulIdx := r.Int63n(census.Mul)
		bit := uint(r.Intn(inQ.Fmt.ProductBits()))
		ev := []fault.Event{{Class: fault.OpMul, Op: mulIdx, Bit: uint8(bit), Operand: fault.ResultReg}}
		got := ForwardFaulty(inQ, p, ev)
		want := bruteForceMulResultFlip(inQ, p, mulIdx, bit)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: replay mismatch at %d: got %d want %d (op %d bit %d)",
					trial, i, got.Data[i], want.Data[i], mulIdx, bit)
			}
		}
	}
}

func TestReplayOperandFlipAffectsOnlyOneOutput(t *testing.T) {
	p, _, _ := buildLayer(t, 8, 3, 4, 3, 3, 1, 1, true)
	_, inQ := randInput(9, 1, 3, 8, 8)
	census := p.Census(inQ.Shape)
	golden := Forward(inQ, p)
	r := rng.New(17)
	changedAny := false
	for trial := 0; trial < 100; trial++ {
		ev := fault.Event{
			Class:   fault.OpMul,
			Op:      r.Int63n(census.Mul),
			Bit:     uint8(r.Intn(16)),
			Operand: uint8(r.Intn(2)),
		}
		faulty := ForwardFaulty(inQ, p, []fault.Event{ev})
		diffs := 0
		for i := range golden.Data {
			if golden.Data[i] != faulty.Data[i] {
				diffs++
			}
		}
		if diffs > 1 {
			t.Fatalf("single mul fault changed %d outputs", diffs)
		}
		if diffs == 1 {
			changedAny = true
		}
	}
	if !changedAny {
		t.Error("100 operand flips never changed any output (suspicious)")
	}
}

func TestReplayAddFaultAffectsOnlyOneOutput(t *testing.T) {
	p, _, _ := buildLayer(t, 18, 3, 4, 3, 3, 1, 1, true)
	_, inQ := randInput(19, 1, 3, 8, 8)
	census := p.Census(inQ.Shape)
	golden := Forward(inQ, p)
	r := rng.New(23)
	for trial := 0; trial < 100; trial++ {
		ev := fault.Event{
			Class:   fault.OpAdd,
			Op:      r.Int63n(census.Add),
			Bit:     uint8(r.Intn(inQ.Fmt.Width)),
			Operand: uint8(r.Intn(2)),
		}
		faulty := ForwardFaulty(inQ, p, []fault.Event{ev})
		diffs := 0
		for i := range golden.Data {
			if golden.Data[i] != faulty.Data[i] {
				diffs++
			}
		}
		if diffs > 1 {
			t.Fatalf("single add fault changed %d outputs", diffs)
		}
	}
}

func TestOperandFlipMulSeverity(t *testing.T) {
	// The induced output error of an operand flip on a multiplication must
	// scale with the other operand: corrupting an activation bit against a
	// large weight must move the output more than against a tiny weight.
	f := fixed.Int16
	mk := func(wval float64) (*Params, *tensor.QTensor) {
		w := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1})
		w.Data[0] = wval
		p := NewParams(w, nil, 1, 0, f, f)
		in := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1})
		in.Data[0] = 0.5
		return p, tensor.Quantize(in, f)
	}
	errFor := func(wval float64) float64 {
		p, inQ := mk(wval)
		golden := Forward(inQ, p)
		ev := []fault.Event{{Class: fault.OpMul, Op: 0, Bit: 12, Operand: 0}}
		faulty := ForwardFaulty(inQ, p, ev)
		return math.Abs(float64(faulty.Data[0] - golden.Data[0]))
	}
	small, large := errFor(0.01), errFor(50)
	if large <= small {
		t.Errorf("operand-flip error with large weight (%v) not larger than with small weight (%v)", large, small)
	}
}

func TestStatisticalEquivalenceToBernoulli(t *testing.T) {
	// Ground truth: per-op Bernoulli injection run the brute-force way must
	// produce the same distribution of corrupted-output counts as the
	// sampled-events path. We compare the mean number of changed outputs.
	p, _, _ := buildLayer(t, 31, 2, 2, 3, 3, 1, 1, false)
	_, inQ := randInput(32, 1, 2, 6, 6)
	census := p.Census(inQ.Shape)
	golden := Forward(inQ, p)
	m := fault.Model{BER: 2e-4, Semantics: fault.ResultFlip}

	countDiffs := func(out *tensor.QTensor) int {
		d := 0
		for i := range out.Data {
			if out.Data[i] != golden.Data[i] {
				d++
			}
		}
		return d
	}

	const rounds = 800
	r := rng.New(77)
	var sampled float64
	for i := 0; i < rounds; i++ {
		evs := fault.Sample(r.Split(uint64(i)), census, census, m, inQ.Fmt, fault.Protection{})
		sampled += float64(countDiffs(ForwardFaulty(inQ, p, evs)))
	}
	sampled /= rounds

	// Brute force: flip each op's result bits with independent Bernoulli.
	var brute float64
	rb := rng.New(78)
	for i := 0; i < rounds; i++ {
		var evs []fault.Event
		for op := int64(0); op < census.Mul; op++ {
			for bit := 0; bit < inQ.Fmt.ProductBits(); bit++ {
				if rb.Bernoulli(m.BER) {
					evs = append(evs, fault.Event{Class: fault.OpMul, Op: op, Bit: uint8(bit), Operand: fault.ResultReg})
				}
			}
		}
		for op := int64(0); op < census.Add; op++ {
			for bit := 0; bit < inQ.Fmt.Width; bit++ {
				if rb.Bernoulli(m.BER) {
					evs = append(evs, fault.Event{Class: fault.OpAdd, Op: op, Bit: uint8(bit), Operand: fault.ResultReg})
				}
			}
		}
		brute += float64(countDiffs(ForwardFaulty(inQ, p, evs)))
	}
	brute /= rounds

	if brute == 0 {
		t.Fatal("brute force produced no corruption; BER too low for test")
	}
	if ratio := sampled / brute; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("sampled/brute corrupted-output ratio = %v (sampled %v, brute %v)", ratio, sampled, brute)
	}
}

func TestNewParamsValidation(t *testing.T) {
	w := tensor.New(tensor.Shape{N: 2, C: 2, H: 3, W: 3})
	for name, fn := range map[string]func(){
		"stride0": func() { NewParams(w, nil, 0, 1, fixed.Int16, fixed.Int16) },
		"negPad":  func() { NewParams(w, nil, 1, -1, fixed.Int16, fixed.Int16) },
		"badBias": func() { NewParams(w, make([]float64, 3), 1, 1, fixed.Int16, fixed.Int16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestChannelMismatchPanics(t *testing.T) {
	p, _, _ := buildLayer(t, 40, 3, 2, 3, 3, 1, 1, false)
	_, inQ := randInput(41, 1, 4, 8, 8)
	defer func() {
		if recover() == nil {
			t.Error("channel mismatch did not panic")
		}
	}()
	Forward(inQ, p)
}

func BenchmarkForward16x16x64(b *testing.B) {
	r := rng.New(1)
	w := tensor.New(tensor.Shape{N: 64, C: 64, H: 3, W: 3}).Random(r, 0.1)
	p := NewParams(w, nil, 1, 1, fixed.Int16, fixed.Int16)
	in := tensor.New(tensor.Shape{N: 1, C: 64, H: 16, W: 16}).Random(r, 1)
	inQ := tensor.Quantize(in, fixed.Int16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(inQ, p)
	}
}

func TestCensusForMatchesParamsCensus(t *testing.T) {
	in := tensor.Shape{N: 2, C: 5, H: 17, W: 13}
	for _, c := range []struct{ k, s, pad int }{{3, 1, 1}, {7, 2, 3}, {1, 1, 0}, {5, 2, 2}} {
		for _, bias := range []bool{true, false} {
			var bs []float64
			if bias {
				bs = make([]float64, 4)
			}
			w := tensor.New(tensor.Shape{N: 4, C: 5, H: c.k, W: c.k})
			p := NewParams(w, bs, c.s, c.pad, fixed.Int16, fixed.Int16)
			got := CensusFor(in, 4, c.k, c.k, c.s, c.pad, bias)
			if got != p.Census(in) {
				t.Errorf("k%d s%d bias=%v: CensusFor %v != Census %v", c.k, c.s, bias, got, p.Census(in))
			}
		}
	}
}

// faultyGeoms are the layers of the replay allocation and census tests: a
// 3x3 stride-1 layer with bias, a 5x5 stride-2 layer without, an FC layer
// and a bias-free 1x1 layer over one input channel, which has no adds.
var faultyGeoms = []struct {
	name                      string
	inC, outC, k, stride, pad int
	h                         int
	bias                      bool
}{
	{"3x3-s1-bias", 3, 4, 3, 1, 1, 8, true},
	{"5x5-s2", 3, 4, 5, 2, 2, 9, false},
	{"fc", 16, 10, 1, 1, 0, 1, true},
	{"1x1-one-channel", 1, 3, 1, 1, 0, 5, false},
}

// TestEventBeyondCensusPanics: an event past the layer's census has no op to
// land on, so keying must refuse it for either class; the last op of each
// class is still inside the census and must replay.
func TestEventBeyondCensusPanics(t *testing.T) {
	for _, g := range faultyGeoms {
		for _, cl := range []fault.OpClass{fault.OpMul, fault.OpAdd} {
			t.Run(g.name+"/"+cl.String(), func(t *testing.T) {
				p, _, _ := buildLayer(t, 50, g.inC, g.outC, g.k, g.k, g.stride, g.pad, g.bias)
				_, inQ := randInput(51, 2, g.inC, g.h, g.h)
				n := p.Census(inQ.Shape).Class(cl)
				if n > 0 {
					last := fault.Event{Class: cl, Op: n - 1, Bit: 14, Operand: fault.ResultReg}
					got, golden := ForwardFaulty(inQ, p, []fault.Event{last}).Data, Forward(inQ, p).Data
					if got[len(got)-1] == golden[len(golden)-1] {
						t.Errorf("the last %v op did not replay", cl)
					}
				}
				defer func() {
					want := fmt.Sprintf("conv: %v event index %d beyond census", cl, n)
					if msg, _ := recover().(string); msg != want {
						t.Errorf("recovered %q, want %q", msg, want)
					}
				}()
				ForwardFaulty(inQ, p, []fault.Event{{Class: cl, Op: n, Bit: 3}})
			})
		}
	}
}

// faultyEvents returns events on the first and the last product, on the
// mid-census add (a chain add in faultyGeoms) and, with a bias, on output
// 0's bias add, plus a 100-event dense run.
func faultyEvents(p *Params, in tensor.Shape) []fault.Event {
	c := p.Census(in)
	k := c.Mul / int64(p.OutShape(in).Elems())
	evs := []fault.Event{
		{Class: fault.OpMul, Op: 0, Bit: 20, Operand: fault.ResultReg},
		{Class: fault.OpMul, Op: c.Mul - 1, Bit: 9, Operand: 0},
	}
	if c.Add > 0 {
		evs = append(evs, fault.Event{Class: fault.OpAdd, Op: c.Add / 2, Bit: 11, Operand: 1})
	}
	if p.BiasF != nil {
		evs = append(evs, fault.Event{Class: fault.OpAdd, Op: k - 1, Bit: 13, Operand: fault.ResultReg})
	}
	for i := int64(0); i < 100; i++ {
		cl := fault.OpClass(i % 2)
		if c.Class(cl) == 0 {
			cl = fault.OpMul
		}
		evs = append(evs, fault.Event{Class: cl, Op: i * 37 % c.Class(cl), Bit: 18, Operand: fault.ResultReg})
	}
	return evs
}

// TestForwardFaultyAllocFree: with a warm Scratch, an event round allocates
// nothing — keying, sorting and replay all run on recycled buffers — under
// both backends.
func TestForwardFaultyAllocFree(t *testing.T) {
	for _, g := range faultyGeoms[:3] {
		for _, name := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p, _, _ := buildLayer(t, 52, g.inC, g.outC, g.k, g.k, g.stride, g.pad, g.bias)
			_, inQ := randInput(53, 2, g.inC, g.h, g.h)
			evs := faultyEvents(p, inQ.Shape)
			sc := &Scratch{Backend: bk}
			golden := append([]int32(nil), ForwardFaultyCtx(sc, inQ, p, nil, nil).Data...)
			if out := ForwardFaultyCtx(sc, inQ, p, evs, nil); slices.Equal(out.Data, golden) {
				t.Fatalf("%s/%s: the events left the output golden", g.name, name)
			}
			allocs := testing.AllocsPerRun(10, func() {
				ForwardFaultyCtx(sc, inQ, p, evs[:4], nil)
				ForwardFaultyCtx(sc, inQ, p, evs, nil)
			})
			if allocs != 0 {
				t.Errorf("%s/%s: a faulty pass allocates %v times, want 0", g.name, name, allocs)
			}
		}
	}
}

var sinkQ *tensor.QTensor

// BenchmarkForwardFaulty times one faulty pass of a 64→64-channel layer on a
// 16x16 input with 16 result-flip events, drawn uniformly over the layer's
// mul and add census.
func BenchmarkForwardFaulty(b *testing.B) {
	for _, k := range []int{3, 1} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			r := rng.New(1)
			w := tensor.New(tensor.Shape{N: 64, C: 64, H: k, W: k}).Random(r, 0.1)
			p := NewParams(w, nil, 1, k/2, fixed.Int16, fixed.Int16)
			in := tensor.Quantize(tensor.New(tensor.Shape{N: 1, C: 64, H: 16, W: 16}).Random(r, 1), fixed.Int16)
			census := p.Census(in.Shape)
			evs := make([]fault.Event, 16)
			for i := range evs {
				cl := fault.OpClass(i % 2)
				evs[i] = fault.Event{Class: cl, Op: r.Int63n(census.Class(cl)), Bit: uint8(r.Intn(32)), Operand: fault.ResultReg}
			}
			sc := &Scratch{}
			ForwardFaultyCtx(sc, in, p, evs, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkQ = ForwardFaultyCtx(sc, in, p, evs, nil)
			}
		})
	}
}

// TestEventImage pins the package doc's image rule: a high-bit result flip
// on the first or last op of image n's run of either class — the ops with
// op ÷ (census ÷ N) = n — changes only image n, for a 3×3 layer with a bias
// (whose add closes each output's run) and for an FC layer.
func TestEventImage(t *testing.T) {
	const images = 3
	for _, g := range []struct {
		name                 string
		inC, outC, k, pad, h int
	}{{"3x3-bias", 2, 3, 3, 1, 5}, {"fc", 6, 4, 1, 0, 1}} {
		t.Run(g.name, func(t *testing.T) {
			p, _, _ := buildLayer(t, 52, g.inC, g.outC, g.k, g.k, 1, g.pad, true)
			_, in := randInput(53, images, g.inC, g.h, g.h)
			golden := Forward(in, p)
			per := len(golden.Data) / images
			for _, cl := range []fault.OpClass{fault.OpMul, fault.OpAdd} {
				run := p.Census(in.Shape).Class(cl) / images
				for img := 0; img < images; img++ {
					for _, op := range []int64{int64(img) * run, int64(img+1)*run - 1} {
						ev := fault.Event{Class: cl, Op: op, Bit: 30, Operand: fault.ResultReg}
						out := ForwardFaulty(in, p, []fault.Event{ev})
						for n := 0; n < images; n++ {
							changed := !slices.Equal(out.Data[n*per:(n+1)*per], golden.Data[n*per:(n+1)*per])
							if changed != (n == img) {
								t.Errorf("%v op %d: image %d changed=%t, want only image %d", cl, op, n, changed, img)
							}
						}
					}
				}
			}
		})
	}
}
