package winograd

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// mkLayer builds a small winograd layer and a quantized input for replay tests.
func mkLayer(seed uint64, tile *Tile, k, stride, pad int) (*Layer, *tensor.QTensor) {
	r := rng.New(seed)
	w := tensor.New(tensor.Shape{N: 3, C: 2, H: k, W: k}).Random(r, 0.4)
	bias := []float64{0.2, -0.1, 0.05}
	l := NewLayer(w, bias, stride, pad, tile, fixed.Int16, fixed.Int16)
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 10, W: 10}).Random(r, 1)
	return l, tensor.Quantize(in, fixed.Int16)
}

func TestForwardFaultyNilEqualsForward(t *testing.T) {
	l, in := mkLayer(1, F2, 3, 1, 1)
	a, b := l.Forward(in), l.ForwardFaulty(in, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("nil events changed output")
		}
	}
}

// TestDuplicateEventCancels is the central replay-correctness property: a
// bit flip applied twice at the same site restores the golden value, for
// every op class and semantics, across the entire census index space. If
// event routing mapped the two copies to different sites they would not
// cancel, so this exercises the full index decode logic of core, replay and
// DWM summation.
func TestDuplicateEventCancels(t *testing.T) {
	configs := []struct {
		name           string
		tile           *Tile
		k, stride, pad int
	}{
		{"F2-3x3-s1", F2, 3, 1, 1},
		{"F4-3x3-s1", F4, 3, 1, 1},
		{"F2-5x5-s1", F2, 5, 1, 2},
		{"F2-7x7-s2", F2, 7, 2, 3},
		{"F2-3x3-s2", F2, 3, 2, 1},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			l, in := mkLayer(2, cfg.tile, cfg.k, cfg.stride, cfg.pad)
			golden := l.Forward(in)
			census := l.Census(in.Shape)
			r := rng.New(77)
			for trial := 0; trial < 150; trial++ {
				cl := fault.OpMul
				span := census.Mul
				if trial%2 == 1 {
					cl = fault.OpAdd
					span = census.Add
				}
				ev := fault.Event{
					Class:   cl,
					Op:      r.Int63n(span),
					Bit:     uint8(r.Intn(16)),
					Operand: uint8(r.Intn(2)),
				}
				if trial%3 == 0 {
					// Exercise result-flip semantics too.
					ev.Operand = fault.ResultReg
				}
				checkCancels(t, l, in, golden, []fault.Event{ev, ev}, trial)
			}
		})
	}
}

func checkCancels(t *testing.T, l *Layer, in, golden *tensor.QTensor, evs []fault.Event, trial int) {
	t.Helper()
	out := l.ForwardFaulty(in, evs)
	for i := range out.Data {
		if out.Data[i] != golden.Data[i] {
			t.Fatalf("trial %d: duplicated event %+v did not cancel (idx %d: %d vs %d)",
				trial, evs[0], i, out.Data[i], golden.Data[i])
		}
	}
}

func TestSingleEventsUsuallyPerturb(t *testing.T) {
	l, in := mkLayer(3, F2, 3, 1, 1)
	golden := l.Forward(in)
	census := l.Census(in.Shape)
	r := rng.New(5)
	perturbed := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		ev := fault.Event{
			Class: fault.OpMul,
			Op:    r.Int63n(census.Mul),
			Bit:   uint8(8 + r.Intn(8)), // high operand bits
		}
		out := l.ForwardFaulty(in, []fault.Event{ev})
		for i := range out.Data {
			if out.Data[i] != golden.Data[i] {
				perturbed++
				break
			}
		}
	}
	if perturbed < trials/4 {
		t.Errorf("only %d/%d high-bit mul faults perturbed the output", perturbed, trials)
	}
}

func TestMulFaultBlastRadius(t *testing.T) {
	// A Hadamard-product fault touches exactly one (tile, oc): at most M²
	// output elements.
	l, in := mkLayer(4, F2, 3, 1, 1)
	golden := l.Forward(in)
	census := l.Census(in.Shape)
	r := rng.New(6)
	for trial := 0; trial < 120; trial++ {
		ev := fault.Event{Class: fault.OpMul, Op: r.Int63n(census.Mul), Bit: uint8(r.Intn(16)), Operand: uint8(r.Intn(2))}
		out := l.ForwardFaulty(in, []fault.Event{ev})
		diffs := 0
		for i := range out.Data {
			if out.Data[i] != golden.Data[i] {
				diffs++
			}
		}
		if diffs > F2.M*F2.M {
			t.Fatalf("mul fault changed %d outputs (> M²=%d)", diffs, F2.M*F2.M)
		}
	}
}

func TestInputTransformFaultSharedAcrossOutputChannels(t *testing.T) {
	// An input-transform fault corrupts V, which all output channels of the
	// tile consume: the blast radius may span several channels (that is the
	// winograd-specific propagation the operation-level platform captures),
	// but never beyond one tile's M²·OC elements.
	l, in := mkLayer(5, F2, 3, 1, 1)
	golden := l.Forward(in)
	r := rng.New(7)
	itSpan := int64(l.units[0].p.InC) * int64(F2.InputAdds())
	uin := l.unitInShape(in.Shape)
	out := l.OutShape(in.Shape)
	_ = uin
	tilesPerImage := itSpan // placeholder to satisfy the linter in case of drift
	_ = tilesPerImage
	maxBlast := F2.M * F2.M * l.OutC
	sawMultiChannel := false
	for trial := 0; trial < 200; trial++ {
		// Sample inside the IT segment of the (single) unit.
		ntTotal := int64(in.Shape.N) * int64((out.H+1)/2) * int64((out.W+1)/2)
		op := r.Int63n(ntTotal * itSpan)
		ev := fault.Event{Class: fault.OpAdd, Op: op, Bit: uint8(20 + r.Intn(8))}
		faulty := l.ForwardFaulty(in, []fault.Event{ev})
		channels := map[int]bool{}
		diffs := 0
		for i := range faulty.Data {
			if faulty.Data[i] != golden.Data[i] {
				diffs++
				channels[(i/(out.H*out.W))%out.C] = true
			}
		}
		if diffs > maxBlast {
			t.Fatalf("IT fault changed %d outputs (> %d)", diffs, maxBlast)
		}
		if len(channels) > 1 {
			sawMultiChannel = true
		}
	}
	if !sawMultiChannel {
		t.Error("no IT fault ever spanned multiple output channels; V sharing seems broken")
	}
}

func TestHadamardResultFlipPredictedDelta(t *testing.T) {
	// For C=1, OC=1 the accumulator-domain effect of a result flip on the
	// Hadamard product at position (i,j) is analytically A^T E A where E has
	// the product delta at (i,j).
	r := rng.New(8)
	w := tensor.New(tensor.Shape{N: 1, C: 1, H: 3, W: 3}).Random(r, 0.4)
	p := NewParams(w, F2, fixed.Int16)
	inF := tensor.New(tensor.Shape{N: 1, C: 1, H: 4, W: 4}).Random(r, 1)
	in := tensor.Quantize(inF, fixed.Int16)

	goldenAcc, outShape := p.ForwardAcc(in, nil)
	T := F2.T()
	for pos := 0; pos < T*T; pos++ {
		for _, bit := range []uint8{0, 7, 15, 30} {
			ev := []fault.Event{{Class: fault.OpMul, Op: int64(pos), Bit: bit, Operand: fault.ResultReg}}
			faultyAcc, _ := p.ForwardAcc(in, ev)

			// Reconstruct the product to get its delta.
			d := make([]int64, T*T)
			for i := 0; i < T; i++ {
				for j := 0; j < T; j++ {
					d[i*T+j] = int64(in.At(0, 0, i, j))
				}
			}
			v := make([]int64, T*T)
			scratch := make([]int64, T*T)
			matTransform(F2.BT, T, T, d, v, scratch)
			prod := v[pos] * int64(p.UT[pos])
			delta := fixed.FlipBit(prod, uint(bit)) - prod

			pi, pj := pos/T, pos%T
			for oy := 0; oy < outShape.H; oy++ {
				for ox := 0; ox < outShape.W; ox++ {
					want := goldenAcc[outShape.Index(0, 0, oy, ox)] +
						delta*F2.AT[oy][pi]*F2.AT[ox][pj]
					got := faultyAcc[outShape.Index(0, 0, oy, ox)]
					if got != want {
						t.Fatalf("pos %d bit %d out(%d,%d): got %d want %d", pos, bit, oy, ox, got, want)
					}
				}
			}
		}
	}
}

func TestLayerValidation(t *testing.T) {
	w := tensor.New(tensor.Shape{N: 2, C: 2, H: 3, W: 3})
	for name, fn := range map[string]func(){
		"stride0": func() { NewLayer(w, nil, 0, 1, F2, fixed.Int16, fixed.Int16) },
		"negPad":  func() { NewLayer(w, nil, 1, -1, F2, fixed.Int16, fixed.Int16) },
		"badBias": func() { NewLayer(w, []float64{1}, 1, 1, F2, fixed.Int16, fixed.Int16) },
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
	l, _ := mkLayer(9, F2, 3, 1, 1)
	bad := tensor.NewQ(tensor.Shape{N: 1, C: 5, H: 10, W: 10}, fixed.Int16)
	defer func() {
		if recover() == nil {
			t.Error("no panic on channel mismatch")
		}
	}()
	l.Forward(bad)
}

func TestInt8Pipeline(t *testing.T) {
	r := rng.New(10)
	w := tensor.New(tensor.Shape{N: 4, C: 3, H: 3, W: 3}).Random(r, 0.3)
	inF := tensor.New(tensor.Shape{N: 1, C: 3, H: 12, W: 12}).Random(r, 1)
	l := NewLayer(w, nil, 1, 1, F2, fixed.Int8, fixed.Int8)
	inQ := tensor.Quantize(inF, fixed.Int8)
	got := tensor.Dequantize(l.Forward(inQ))
	want := conv.ForwardFloat(inF, w, nil, 1, 1)
	// int8 is coarse; just require the outputs to correlate strongly.
	var num, da, db float64
	for i := range got.Data {
		num += got.Data[i] * want.Data[i]
		da += got.Data[i] * got.Data[i]
		db += want.Data[i] * want.Data[i]
	}
	corr := num / (sqrt(da) * sqrt(db))
	if corr < 0.95 {
		t.Errorf("int8 winograd correlation with reference = %v", corr)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

func BenchmarkWinogradF2_16x16x64(b *testing.B) {
	r := rng.New(1)
	w := tensor.New(tensor.Shape{N: 64, C: 64, H: 3, W: 3}).Random(r, 0.1)
	l := NewLayer(w, nil, 1, 1, F2, fixed.Int16, fixed.Int16)
	in := tensor.New(tensor.Shape{N: 1, C: 64, H: 16, W: 16}).Random(r, 1)
	inQ := tensor.Quantize(in, fixed.Int16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(inQ)
	}
}

func ExampleLayer_Units() {
	w := tensor.New(tensor.Shape{N: 1, C: 1, H: 7, W: 7})
	l := NewLayer(w, nil, 2, 3, F2, fixed.Int16, fixed.Int16)
	fmt.Println(l.Units())
	// Output: 9
}

// TestEventBeyondCensusPanics: an event past the layer's census has no op to
// land on, so routing must refuse it for either class, with or without bias
// and for one unit or a DWM decomposition, and so must a bare core. The last
// op of each class is still inside the census and must replay.
func TestEventBeyondCensusPanics(t *testing.T) {
	for _, bias := range []bool{true, false} {
		for _, geom := range []struct {
			name           string
			k, stride, pad int
		}{{"one-unit", 3, 1, 1}, {"dwm", 5, 2, 2}} {
			for _, cl := range []fault.OpClass{fault.OpMul, fault.OpAdd} {
				t.Run(fmt.Sprintf("bias=%t/%s/%v", bias, geom.name, cl), func(t *testing.T) {
					l, in := mkLayer(12, F2, geom.k, geom.stride, geom.pad)
					if !bias {
						l.BiasF = nil
					}
					census := l.Census(in.Shape)
					last := fault.Event{Class: cl, Op: census.Class(cl) - 1, Bit: 3, Operand: fault.ResultReg}
					l.ForwardFaulty(in, []fault.Event{last})
					wantBeyondCensus(t, func() {
						l.ForwardFaulty(in, []fault.Event{{Class: cl, Op: census.Class(cl) + 5, Bit: 3}})
					})
				})
			}
		}
	}
	for _, cl := range []fault.OpClass{fault.OpMul, fault.OpAdd} {
		t.Run(fmt.Sprintf("core/%v", cl), func(t *testing.T) {
			l, in := mkLayer(12, F2, 3, 1, 0)
			p := l.units[0].p
			wantBeyondCensus(t, func() {
				p.ForwardAcc(in, []fault.Event{{Class: cl, Op: p.Census(in.Shape).Class(cl), Bit: 3}})
			})
		})
	}
}

// wantBeyondCensus requires fn to panic with a beyond-census message.
func wantBeyondCensus(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "beyond census") {
			t.Errorf("recovered %q, want a beyond-census panic", msg)
		}
	}()
	fn()
}

// faultyLayerEvents returns events of l on input in that land in unit 0's
// mul, input-transform, channel-accumulation and output-transform segments
// (tile 0) and in the summation segment, plus a dense run of 40 result
// flips over unit 0's products.
func faultyLayerEvents(l *Layer, in tensor.Shape) []fault.Event {
	p := l.units[0].p
	uin := l.unitInShape(in)
	tilesY, tilesX := p.tileGrid(p.OutShape(uin))
	ntTotal := int64(uin.N) * int64(tilesY) * int64(tilesX)
	itPer, caPer, _ := p.segments()
	var unitAdds int64
	for _, u := range l.units {
		unitAdds += u.p.Census(uin).Add
	}
	evs := []fault.Event{
		{Class: fault.OpMul, Op: 5, Bit: 20, Operand: fault.ResultReg},
		{Class: fault.OpAdd, Op: 3, Bit: 9, Operand: 0},
		{Class: fault.OpAdd, Op: ntTotal*itPer + 4, Bit: 11, Operand: 1},
		{Class: fault.OpAdd, Op: ntTotal*(itPer+caPer) + 2, Bit: 13, Operand: fault.ResultReg},
		{Class: fault.OpAdd, Op: unitAdds + 5, Bit: 14, Operand: fault.ResultReg},
	}
	for i := int64(0); i < 40; i++ {
		evs = append(evs, fault.Event{Class: fault.OpMul, Op: i * 37 % p.Census(uin).Mul, Bit: 18, Operand: fault.ResultReg})
	}
	return evs
}

// TestForwardFaultyAllocFree: with a warm Scratch, an event round allocates
// nothing — routing, the summation cursor and per-site replay all run on
// recycled buffers — under both backends.
func TestForwardFaultyAllocFree(t *testing.T) {
	for _, geom := range []struct {
		name           string
		k, stride, pad int
	}{{"3x3-s1", 3, 1, 1}, {"5x5-s2", 5, 2, 2}} {
		for _, name := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			l, in := mkLayer(13, F2, geom.k, geom.stride, geom.pad)
			evs := faultyLayerEvents(l, in.Shape)
			sc := &Scratch{Backend: bk}
			golden := append([]int32(nil), l.ForwardFaultyCtx(sc, in, nil, nil).Data...)
			if out := l.ForwardFaultyCtx(sc, in, evs[:5], nil); slices.Equal(out.Data, golden) {
				t.Fatalf("%s/%s: the segment events left the output golden", geom.name, name)
			}
			allocs := testing.AllocsPerRun(10, func() {
				l.ForwardFaultyCtx(sc, in, evs[:5], nil)
				l.ForwardFaultyCtx(sc, in, evs, nil)
			})
			if allocs != 0 {
				t.Errorf("%s/%s: a faulty pass allocates %v times, want 0", geom.name, name, allocs)
			}
		}
	}
}

var sinkQ *tensor.QTensor

// BenchmarkForwardFaulty times one faulty pass of a 64→64-channel 3x3 layer
// on a 16x16 input with about one result-flip event per four tiles, drawn
// uniformly over the layer's mul and add census.
func BenchmarkForwardFaulty(b *testing.B) {
	for _, tile := range Tiles {
		b.Run(tile.Name, func(b *testing.B) {
			r := rng.New(1)
			w := tensor.New(tensor.Shape{N: 64, C: 64, H: 3, W: 3}).Random(r, 0.1)
			l := NewLayer(w, nil, 1, 1, tile, fixed.Int16, fixed.Int16)
			in := tensor.Quantize(tensor.New(tensor.Shape{N: 1, C: 64, H: 16, W: 16}).Random(r, 1), fixed.Int16)
			census := l.Census(in.Shape)
			tiles := (16 / tile.M) * (16 / tile.M)
			evs := make([]fault.Event, tiles/4)
			for i := range evs {
				cl := fault.OpClass(i % 2)
				evs[i] = fault.Event{Class: cl, Op: r.Int63n(census.Class(cl)), Bit: uint8(r.Intn(32)), Operand: fault.ResultReg}
			}
			sc := &Scratch{}
			l.ForwardFaultyCtx(sc, in, evs, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkQ = l.ForwardFaultyCtx(sc, in, evs, nil)
			}
		})
	}
}

// TestSummationEventHitsItsElement: a result flip on the summation add of
// output element e (step s adds unit s+1, the last step the bias) changes
// element e and nothing else, so the layer's keys line summation events up
// with the elements the walk adds them to.
func TestSummationEventHitsItsElement(t *testing.T) {
	l, in := mkLayer(14, F2, 5, 2, 2)
	golden := l.Forward(in)
	uin := l.unitInShape(in.Shape)
	sumBase := int64(l.Units()) * l.units[0].p.Census(uin).Add
	perOut := l.sumAddsPerOut()
	for _, e := range []int{0, 1, len(golden.Data) / 2, len(golden.Data) - 1} {
		for s := int64(0); s < perOut; s++ {
			ev := fault.Event{Class: fault.OpAdd, Op: sumBase + int64(e)*perOut + s, Bit: 30, Operand: fault.ResultReg}
			out := l.ForwardFaulty(in, []fault.Event{ev})
			for i := range out.Data {
				if changed := out.Data[i] != golden.Data[i]; changed != (i == e) {
					t.Fatalf("element %d step %d: output %d changed=%t", e, s, i, changed)
				}
			}
		}
	}
}

// changedImages lists the images of out that differ from golden.
func changedImages(out, golden *tensor.QTensor) []int {
	var imgs []int
	per := len(golden.Data) / golden.Shape.N
	for n := 0; n < golden.Shape.N; n++ {
		if !slices.Equal(out.Data[n*per:(n+1)*per], golden.Data[n*per:(n+1)*per]) {
			imgs = append(imgs, n)
		}
	}
	return imgs
}

// TestEventImage: a high-bit result flip on the first or last op of each
// image's run changes only the image EventImage reports, in every segment
// of a layer's census: each DWM unit's mul space and its IT, CA and OT add
// segments, and every summation step and the bias step. The geometries
// have no tile overhang and no zero sub-kernel taps, so no flip is masked.
func TestEventImage(t *testing.T) {
	const images = 3
	for _, geom := range []struct {
		name              string
		k, stride, pad, h int
	}{{"3x3", 3, 1, 1, 4}, {"dwm-6x6-s2", 6, 2, 2, 8}} {
		t.Run(geom.name, func(t *testing.T) {
			r := rng.New(15)
			w := tensor.New(tensor.Shape{N: 3, C: 2, H: geom.k, W: geom.k}).Random(r, 0.4)
			l := NewLayer(w, []float64{0.2, -0.1, 0.05}, geom.stride, geom.pad, F2, fixed.Int16, fixed.Int16)
			in := tensor.Quantize(tensor.New(tensor.Shape{N: images, C: 2, H: geom.h, W: geom.h}).Random(r, 1), fixed.Int16)
			golden := l.Forward(in)

			// Segments as [start, end) per class, each image-major.
			type segment struct {
				name       string
				cl         fault.OpClass
				start, end int64
			}
			uin := l.unitInShape(in.Shape)
			p := l.units[0].p
			unit, nt := p.Census(uin), p.tiles(uin)
			itPer, caPer, _ := p.segments()
			var segs []segment
			for ui := int64(0); ui < int64(l.Units()); ui++ {
				m, a := ui*unit.Mul, ui*unit.Add
				it, ca := a+nt*itPer, a+nt*(itPer+caPer)
				segs = append(segs,
					segment{fmt.Sprintf("unit%d/mul", ui), fault.OpMul, m, m + unit.Mul},
					segment{fmt.Sprintf("unit%d/IT", ui), fault.OpAdd, a, it},
					segment{fmt.Sprintf("unit%d/CA", ui), fault.OpAdd, it, ca},
					segment{fmt.Sprintf("unit%d/OT", ui), fault.OpAdd, ca, a + unit.Add})
			}
			type probe struct {
				seg string
				ev  fault.Event
				img int
			}
			var probes []probe
			add := func(seg string, cl fault.OpClass, op, img int64) {
				probes = append(probes, probe{seg, fault.Event{Class: cl, Op: op, Bit: 30, Operand: fault.ResultReg}, int(img)})
			}
			for _, s := range segs {
				per := (s.end - s.start) / images
				for img := int64(0); img < images; img++ {
					add(s.name, s.cl, s.start+img*per, img)
					add(s.name, s.cl, s.start+(img+1)*per-1, img)
				}
			}
			// Summation add = element·perOut + step: every step, at the first
			// and last element of each image.
			sum, perOut := int64(l.Units())*unit.Add, l.sumAddsPerOut()
			per := int64(golden.Shape.Elems()) / images
			for step := int64(0); step < perOut; step++ {
				for img := int64(0); img < images; img++ {
					seg := fmt.Sprintf("sum/step%d", step)
					add(seg, fault.OpAdd, sum+img*per*perOut+step, img)
					add(seg, fault.OpAdd, sum+((img+1)*per-1)*perOut+step, img)
				}
			}
			if last := probes[len(probes)-1].ev.Op; last != l.Census(in.Shape).Add-1 {
				t.Fatalf("segments end at add %d, census %d", last+1, l.Census(in.Shape).Add)
			}
			for _, cl := range []fault.OpClass{fault.OpMul, fault.OpAdd} {
				beyond := fault.Event{Class: cl, Op: l.Census(in.Shape).Class(cl), Bit: 30, Operand: fault.ResultReg}
				if got := l.EventImage(in.Shape, beyond); got >= 0 && got < images {
					t.Errorf("%v op %d beyond the census: EventImage %d, want outside [0, %d)", cl, beyond.Op, got, images)
				}
			}
			for _, o := range probes {
				if got := l.EventImage(in.Shape, o.ev); got != o.img {
					t.Errorf("%s op %d: EventImage %d, want %d", o.seg, o.ev.Op, got, o.img)
				}
				if got := changedImages(l.ForwardFaulty(in, []fault.Event{o.ev}), golden); !slices.Equal(got, []int{o.img}) {
					t.Errorf("%s op %d: changed images %v, want [%d]", o.seg, o.ev.Op, got, o.img)
				}
			}
		})
	}
}
