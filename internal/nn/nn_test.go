package nn

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

func qIn(seed uint64, n, c, h, w int, f fixed.Format) *tensor.QTensor {
	t := tensor.New(tensor.Shape{N: n, C: c, H: h, W: w}).Random(rng.New(seed), 1)
	return tensor.Quantize(t, f)
}

func TestReLU(t *testing.T) {
	in := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 1, W: 4}, fixed.Int16)
	copy(in.Data, []int32{-5, 0, 3, -1})
	out := ReLU{}.Forward(nil, []*tensor.QTensor{in}, nil)
	want := []int32{0, 0, 3, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("relu[%d] = %d, want %d", i, out.Data[i], want[i])
		}
	}
	if c := (ReLU{}).Census([]tensor.Shape{in.Shape}); c.Total() != 0 {
		t.Error("relu census must be zero")
	}
}

func TestMaxPool(t *testing.T) {
	in := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 4, W: 4}, fixed.Int16)
	for i := range in.Data {
		in.Data[i] = int32(i)
	}
	p := MaxPool{K: 2, Stride: 2}
	out := p.Forward(nil, []*tensor.QTensor{in}, nil)
	if out.Shape != (tensor.Shape{N: 1, C: 1, H: 2, W: 2}) {
		t.Fatalf("shape %v", out.Shape)
	}
	want := []int32{5, 7, 13, 15}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("maxpool[%d] = %d, want %d", i, out.Data[i], want[i])
		}
	}
}

func TestMaxPoolPaddingIgnoresOOB(t *testing.T) {
	in := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, fixed.Int16)
	copy(in.Data, []int32{-4, -3, -2, -1})
	p := MaxPool{K: 3, Stride: 2, Pad: 1}
	out := p.Forward(nil, []*tensor.QTensor{in}, nil)
	// All windows see only negative values; max must be negative (OOB cells
	// are not treated as zeros).
	for i, v := range out.Data {
		if v >= 0 {
			t.Errorf("maxpool with pad produced non-negative %d at %d", v, i)
		}
	}
}

func TestAvgPool(t *testing.T) {
	in := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, fixed.Int16)
	copy(in.Data, []int32{1, 3, 5, 7})
	p := AvgPool{K: 2, Stride: 2}
	out := p.Forward(nil, []*tensor.QTensor{in}, nil)
	if out.Data[0] != 4 {
		t.Errorf("avg = %d, want 4", out.Data[0])
	}
	if c := p.Census([]tensor.Shape{in.Shape}); c.Add != 3 {
		t.Errorf("avgpool census add = %d, want 3", c.Add)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := tensor.NewQ(tensor.Shape{N: 1, C: 2, H: 2, W: 2}, fixed.Int16)
	copy(in.Data, []int32{1, 2, 3, 4, 10, 20, 30, 40})
	out := GlobalAvgPool{}.Forward(nil, []*tensor.QTensor{in}, nil)
	if out.Shape != (tensor.Shape{N: 1, C: 2, H: 1, W: 1}) {
		t.Fatalf("shape %v", out.Shape)
	}
	if out.Data[0] != 3 || out.Data[1] != 25 {
		t.Errorf("gap = %v, want [3 25] (round half away)", out.Data)
	}
}

func TestAddSaturates(t *testing.T) {
	f := fixed.Int16
	a := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 1, W: 2}, f)
	b := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 1, W: 2}, f)
	a.Data[0], b.Data[0] = f.Max(), f.Max()
	a.Data[1], b.Data[1] = -100, 40
	out := Add{}.Forward(nil, []*tensor.QTensor{a, b}, nil)
	if out.Data[0] != f.Max() {
		t.Errorf("saturating add = %d, want %d", out.Data[0], f.Max())
	}
	if out.Data[1] != -60 {
		t.Errorf("add = %d, want -60", out.Data[1])
	}
}

func TestConcat(t *testing.T) {
	a := qIn(1, 1, 2, 3, 3, fixed.Int16)
	b := qIn(2, 1, 3, 3, 3, fixed.Int16)
	out := Concat{}.Forward(nil, []*tensor.QTensor{a, b}, nil)
	if out.Shape != (tensor.Shape{N: 1, C: 5, H: 3, W: 3}) {
		t.Fatalf("concat shape %v", out.Shape)
	}
	if out.At(0, 0, 1, 1) != a.At(0, 0, 1, 1) || out.At(0, 3, 2, 2) != b.At(0, 1, 2, 2) {
		t.Error("concat misplaced values")
	}
}

func TestFlatten(t *testing.T) {
	in := qIn(3, 2, 3, 4, 4, fixed.Int16)
	out := Flatten{}.Forward(nil, []*tensor.QTensor{in}, nil)
	if out.Shape != (tensor.Shape{N: 2, C: 48, H: 1, W: 1}) {
		t.Fatalf("flatten shape %v", out.Shape)
	}
	if out.Data[5] != in.Data[5] {
		t.Error("flatten reordered data")
	}
}

func TestRoundDiv(t *testing.T) {
	cases := []struct{ v, n, want int64 }{
		{7, 2, 4}, {-7, 2, -4}, {6, 4, 2}, {-6, 4, -2}, {5, 4, 1}, {0, 9, 0},
	}
	for _, c := range cases {
		if got := roundDiv(c.v, c.n); got != c.want {
			t.Errorf("roundDiv(%d,%d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

// buildTiny returns a small but representative network: conv, pool, residual
// branch, concat, FC head.
func buildTiny(kind EngineKind, seed uint64, fmtW fixed.Format) *Network {
	cfg := Config{Kind: kind, Tile: winograd.F2, ActFmt: fmtW, WFmt: fmtW, Seed: seed}
	b := NewBuilder("tiny", cfg, 3, 16, 16)
	x := b.ConvReLU("conv1", b.Input(), 8, 3, 1, 1)
	x = b.MaxPool("pool1", x, 2, 2, 0)
	// Residual block.
	y := b.ConvReLU("res.a", x, 8, 3, 1, 1)
	y = b.ConvNoBias("res.b", y, 8, 3, 1, 1)
	x = b.ReLU("res.relu", b.Add("res.add", x, y))
	// Inception-ish split.
	p := b.ConvReLU("br1", x, 4, 1, 1, 0)
	q := b.ConvReLU("br3", x, 4, 3, 1, 1)
	x = b.Concat("cat", p, q)
	x = b.GlobalAvgPool("gap", x)
	x = b.Flatten("flat", x)
	x = b.FC("fc", x, 10)
	return b.Build(x)
}

func TestNetworkForwardShapes(t *testing.T) {
	net := buildTiny(Direct, 1, fixed.Int16)
	in := qIn(9, 2, 3, 16, 16, fixed.Int16)
	out := net.Forward(in, nil)
	if out.Shape != (tensor.Shape{N: 2, C: 10, H: 1, W: 1}) {
		t.Fatalf("output shape %v", out.Shape)
	}
	preds := Argmax(out)
	if len(preds) != 2 {
		t.Fatalf("argmax length %d", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p >= 10 {
			t.Errorf("pred %d out of range", p)
		}
	}
}

func TestSameWeightsAcrossEngines(t *testing.T) {
	// Direct and winograd instantiations of the same seed must compute the
	// same neurons up to quantization noise (paper: lossless conversion).
	st := buildTiny(Direct, 7, fixed.Int16)
	wg := buildTiny(Winograd, 7, fixed.Int16)
	in := qIn(10, 2, 3, 16, 16, fixed.Int16)
	a := st.Forward(in, nil)
	b := wg.Forward(in, nil)
	maxd := int32(0)
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > maxd {
			maxd = d
		}
	}
	// Logit scale is 2^-8; allow a few dozen LSB of accumulated divergence.
	if maxd > 64 {
		t.Errorf("ST and WG logits diverge by %d LSB", maxd)
	}
	// And predictions should agree on a clean run.
	pa, pb := Argmax(a), Argmax(b)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("sample %d: ST pred %d != WG pred %d", i, pa[i], pb[i])
		}
	}
}

func TestEngineCensusDiffers(t *testing.T) {
	st := buildTiny(Direct, 7, fixed.Int16)
	wg := buildTiny(Winograd, 7, fixed.Int16)
	in := tensor.Shape{N: 1, C: 3, H: 16, W: 16}
	cs, cw := st.TotalCensus(in), wg.TotalCensus(in)
	if cw.Mul >= cs.Mul {
		t.Errorf("winograd muls %d not fewer than direct %d", cw.Mul, cs.Mul)
	}
	if cw.Add <= cs.Add/2 {
		t.Errorf("winograd adds suspiciously low: %d vs %d", cw.Add, cs.Add)
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	n := &Network{Nodes: []Node{{Name: "x", Op: ReLU{}, Inputs: []int{3}}}, Output: 0}
	if err := n.Validate(); err == nil {
		t.Error("forward reference not caught")
	}
	n = &Network{Nodes: []Node{{Name: "x", Op: nil, Inputs: []int{InputNode}}}, Output: 0}
	if err := n.Validate(); err == nil {
		t.Error("nil op not caught")
	}
	n = &Network{Nodes: []Node{{Name: "x", Op: ReLU{}, Inputs: []int{InputNode}}}, Output: 5}
	if err := n.Validate(); err == nil {
		t.Error("bad output not caught")
	}
}

// recordingInjector counts injector callbacks.
type recordingInjector struct {
	opCalls     int
	neuronCalls int
	events      []fault.Event
}

func (r *recordingInjector) OpEvents(li int, c fault.Census) []fault.Event {
	r.opCalls++
	return r.events
}
func (r *recordingInjector) Neuron(li int, q *tensor.QTensor) { r.neuronCalls++ }

func TestInjectorCallbacks(t *testing.T) {
	net := buildTiny(Direct, 3, fixed.Int16)
	in := qIn(11, 1, 3, 16, 16, fixed.Int16)
	rec := &recordingInjector{}
	net.Forward(in, rec)
	// Op events only for nodes with arithmetic: convs + FC + add + pools.
	if rec.opCalls == 0 || rec.opCalls >= len(net.Nodes) {
		t.Errorf("opCalls = %d of %d nodes", rec.opCalls, len(net.Nodes))
	}
	if rec.neuronCalls != len(net.Nodes) {
		t.Errorf("neuronCalls = %d, want %d", rec.neuronCalls, len(net.Nodes))
	}
}

func TestFaultEventsPerturbNetwork(t *testing.T) {
	net := buildTiny(Direct, 3, fixed.Int16)
	in := qIn(12, 1, 3, 16, 16, fixed.Int16)
	golden := net.Forward(in, nil)
	census := net.LayerCensus(in.Shape)
	// Find the first conv node and hit its highest product bit repeatedly.
	convIdx := net.ConvNodes()[0]
	inj := &singleLayerInjector{target: convIdx}
	for i := 0; i < 20; i++ {
		inj.ev = fault.Event{Class: fault.OpMul, Op: int64(i) % census[convIdx].Mul, Bit: 28, Operand: fault.ResultReg}
		out := net.Forward(in, inj)
		if !equalQ(out, golden) {
			return // perturbation observed
		}
	}
	t.Error("20 high-bit conv faults never changed the logits")
}

type singleLayerInjector struct {
	target int
	ev     fault.Event
}

func (s *singleLayerInjector) OpEvents(li int, c fault.Census) []fault.Event {
	if li == s.target {
		return []fault.Event{s.ev}
	}
	return nil
}
func (s *singleLayerInjector) Neuron(int, *tensor.QTensor) {}

func equalQ(a, b *tensor.QTensor) bool {
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestConvNodes(t *testing.T) {
	net := buildTiny(Direct, 3, fixed.Int16)
	nodes := net.ConvNodes()
	if len(nodes) != 6 { // conv1, res.a, res.b, br1, br3, fc
		t.Errorf("ConvNodes = %d, want 6", len(nodes))
	}
}

func TestEngineKindString(t *testing.T) {
	if Direct.String() != "direct" || Winograd.String() != "winograd" {
		t.Error("EngineKind strings wrong")
	}
}

func TestWinograd1x1FallsBackToDirect(t *testing.T) {
	w := tensor.New(tensor.Shape{N: 4, C: 4, H: 1, W: 1}).Random(rng.New(1), 0.3)
	op := NewConv(w, nil, 1, 0, Winograd, winograd.F2, fixed.Int16, fixed.Int16)
	if op.IsWinograd() {
		t.Error("1x1 conv must not use the winograd engine")
	}
	w3 := tensor.New(tensor.Shape{N: 4, C: 4, H: 3, W: 3}).Random(rng.New(2), 0.3)
	op3 := NewConv(w3, nil, 1, 1, Winograd, winograd.F2, fixed.Int16, fixed.Int16)
	if !op3.IsWinograd() {
		t.Error("3x3 conv must use the winograd engine")
	}
}

func TestAddOpFaultReplay(t *testing.T) {
	a := qIn(20, 1, 2, 4, 4, fixed.Int16)
	b := qIn(21, 1, 2, 4, 4, fixed.Int16)
	golden := Add{}.Forward(nil, []*tensor.QTensor{a, b}, nil)
	ev := fault.Event{Class: fault.OpAdd, Op: 5, Bit: 10, Operand: 0}
	out := Add{}.Forward(nil, []*tensor.QTensor{a, b}, []fault.Event{ev})
	diffs := 0
	for i := range out.Data {
		if out.Data[i] != golden.Data[i] {
			if i != 5 {
				t.Errorf("fault on op 5 changed element %d", i)
			}
			diffs++
		}
	}
	if diffs != 1 {
		t.Errorf("expected exactly 1 changed element, got %d", diffs)
	}
	// Duplicate cancels.
	out2 := Add{}.Forward(nil, []*tensor.QTensor{a, b}, []fault.Event{ev, ev})
	if !equalQ(out2, golden) {
		t.Error("duplicate add fault did not cancel")
	}
}

func TestBatchedForwardMatchesPerSample(t *testing.T) {
	net := buildTiny(Direct, 5, fixed.Int16)
	batch := qIn(30, 3, 3, 16, 16, fixed.Int16)
	outB := net.Forward(batch, nil)
	for s := 0; s < 3; s++ {
		single := tensor.NewQ(tensor.Shape{N: 1, C: 3, H: 16, W: 16}, fixed.Int16)
		copy(single.Data, batch.Data[s*3*16*16:(s+1)*3*16*16])
		outS := net.Forward(single, nil)
		for c := 0; c < 10; c++ {
			if outS.At(0, c, 0, 0) != outB.At(s, c, 0, 0) {
				t.Fatalf("sample %d class %d: batched %d != single %d",
					s, c, outB.At(s, c, 0, 0), outS.At(0, c, 0, 0))
			}
		}
	}
}

// addingOps are the nn ops whose adds replay fault events, each with inputs;
// the 1x1 window and 1x1 plane have no adds at all.
func addingOps() []struct {
	name string
	op   Op
	ins  []*tensor.QTensor
} {
	x := qIn(60, 2, 3, 7, 7, fixed.Int16)
	return []struct {
		name string
		op   Op
		ins  []*tensor.QTensor
	}{
		{"avgpool", AvgPool{K: 3, Stride: 2, Pad: 1}, []*tensor.QTensor{x}},
		{"avgpool-1x1", AvgPool{K: 1, Stride: 1}, []*tensor.QTensor{x}},
		{"gap", GlobalAvgPool{}, []*tensor.QTensor{x}},
		{"gap-1x1-plane", GlobalAvgPool{}, []*tensor.QTensor{qIn(61, 2, 3, 1, 1, fixed.Int16)}},
		{"add", Add{}, []*tensor.QTensor{x, qIn(62, 2, 3, 7, 7, fixed.Int16)}},
	}
}

// TestAddingOpEventBeyondCensusPanics: the last add of AvgPool,
// GlobalAvgPool and Add still replays, for an event of either class, and an
// event one past the census panics while the events are keyed.
func TestAddingOpEventBeyondCensusPanics(t *testing.T) {
	for _, tc := range addingOps() {
		for _, cl := range []fault.OpClass{fault.OpMul, fault.OpAdd} {
			t.Run(tc.name+"/"+cl.String(), func(t *testing.T) {
				shapes := []tensor.Shape{tc.ins[0].Shape}
				n := tc.op.Census(shapes).Add
				if n > 0 {
					last := []fault.Event{{Class: cl, Op: n - 1, Bit: 14, Operand: fault.ResultReg}}
					got, golden := tc.op.Forward(nil, tc.ins, last).Data, tc.op.Forward(nil, tc.ins, nil).Data
					if got[len(got)-1] == golden[len(golden)-1] {
						t.Error("the last add did not replay")
					}
				}
				defer func() {
					want := fmt.Sprintf("nn: %s event index %d beyond census", tc.op.Kind(), n)
					if msg, _ := recover().(string); msg != want {
						t.Errorf("recovered %q, want %q", msg, want)
					}
				}()
				tc.op.Forward(nil, tc.ins, []fault.Event{{Class: cl, Op: n, Bit: 14}})
			})
		}
	}
}

// TestAddingOpEventImage: a result flip on the first or last add of each
// image's run changes only the image eventImage reports, and an add just
// past the census maps to no image. A mul event, which the add-only census
// never draws, maps to no image either, so it dirties the whole batch.
func TestAddingOpEventImage(t *testing.T) {
	for _, tc := range addingOps() {
		shapes := []tensor.Shape{tc.ins[0].Shape}
		c := tc.op.Census(shapes)
		if c.Add == 0 {
			continue
		}
		images := shapes[0].N
		golden := tc.op.Forward(nil, tc.ins, nil).Data
		per, run := len(golden)/images, c.Add/int64(images)
		for _, ev := range []fault.Event{{Class: fault.OpAdd, Op: c.Add}, {Class: fault.OpMul}} {
			if got := eventImage(tc.op, shapes, c, ev); got >= 0 && got < images {
				t.Errorf("%s: %v op %d: eventImage %d, want outside [0, %d)", tc.name, ev.Class, ev.Op, got, images)
			}
		}
		for img := 0; img < images; img++ {
			for _, op := range []int64{int64(img) * run, int64(img+1)*run - 1} {
				ev := fault.Event{Class: fault.OpAdd, Op: op, Bit: 14, Operand: fault.ResultReg}
				if got := eventImage(tc.op, shapes, c, ev); got != img {
					t.Errorf("%s op %d: eventImage %d, want %d", tc.name, op, got, img)
				}
				out := tc.op.Forward(nil, tc.ins, []fault.Event{ev}).Data
				for n := 0; n < images; n++ {
					changed := !slices.Equal(out[n*per:(n+1)*per], golden[n*per:(n+1)*per])
					if changed != (n == img) {
						t.Errorf("%s op %d: image %d changed=%t, want only image %d", tc.name, op, n, changed, img)
					}
				}
			}
		}
	}
}

// TestAddingOpFaultyAllocFree: through a warm Scratch, a faulty AvgPool,
// GlobalAvgPool or Add pass allocates nothing, with a few events or a dense
// list of 100.
func TestAddingOpFaultyAllocFree(t *testing.T) {
	for _, tc := range addingOps() {
		n := tc.op.Census([]tensor.Shape{tc.ins[0].Shape}).Add
		if n == 0 {
			continue
		}
		var evs []fault.Event
		for i := int64(0); i < 100; i++ {
			evs = append(evs, fault.Event{Class: fault.OpClass(i % 2), Op: i * 37 % n, Bit: 14, Operand: fault.ResultReg})
		}
		sc := &Scratch{}
		golden := append([]int32(nil), tc.op.Forward(sc, tc.ins, nil).Data...)
		if equalQ(tc.op.Forward(sc, tc.ins, evs[:3]), &tensor.QTensor{Data: golden}) {
			t.Fatalf("%s: the events left the output golden", tc.name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			tc.op.Forward(sc, tc.ins, evs[:3])
			tc.op.Forward(sc, tc.ins, evs)
		})
		if allocs != 0 {
			t.Errorf("%s: a faulty pass allocates %v times, want 0", tc.name, allocs)
		}
	}
}
