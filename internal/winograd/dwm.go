package winograd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Layer is a complete winograd convolution layer. For the canonical 3x3
// stride-1 case it wraps a single Params; for larger kernels or strides it
// applies the decomposable winograd method (DWM): the kernel is split by
// stride residue class and into 3x3 blocks, every block becomes a stride-1
// 3x3 winograd convolution over a gathered (subsampled + shifted) view of the
// input, and the partial results are summed in the accumulator domain before
// a single requantization — so the decomposition is lossless, matching the
// paper's claim that winograd processing incurs no accuracy penalty even for
// large kernels and strides.
//
// Event routing: per op class, unit censuses are concatenated in unit order;
// additions gain a final summation segment ordered (output element, step)
// with units-1 partial-sum adds followed by one bias add when present.
//
// Image of an event (EventImage): find the unit whose census segment holds
// it, then its tile nt inside the unit's mul space or IT, CA or OT add
// segment (each image-major in nt, core.go); the event lands on image nt ÷
// tiles per image. A summation or bias event lands on the image of its
// output element. A pass may compute a subset of its batch's images; events
// land only on the images it computes.
//
// Replay keys (the fault.Cursor layout): every unit has the same census, so
// keys come in blocks of tiles·span + elements, one per unit. Block ui holds
// unit ui's tile sites (the core's siteLayout, offset by ui·block), then the
// summation step that adds unit ui, keyed by output element; the bias step
// is the summation part of the block after the last unit.
type Layer struct {
	Tile   *Tile
	Stride int
	Pad    int
	KH, KW int
	InC    int
	OutC   int
	BiasF  []float64
	OutFmt fixed.Format
	WFrac  int

	units []unit
}

type unit struct {
	p      *Params
	ry, rx int // stride residue of this sub-grid
	sy, sx int // block shift inside the sub-grid, in sub-grid pixels
}

// unitGeom is the weight-free description of one DWM sub-convolution.
type unitGeom struct {
	ry, rx, by, bx int
}

// unitGeoms enumerates the DWM decomposition of a (kh x kw, stride) kernel
// into r x r stride-1 blocks: one entry per (stride residue, block) pair.
func unitGeoms(kh, kw, stride, r int) []unitGeom {
	var out []unitGeom
	for ry := 0; ry < stride; ry++ {
		subKH := (kh - ry + stride - 1) / stride
		if subKH <= 0 {
			continue
		}
		for rx := 0; rx < stride; rx++ {
			subKW := (kw - rx + stride - 1) / stride
			if subKW <= 0 {
				continue
			}
			for by := 0; by < (subKH+r-1)/r; by++ {
				for bx := 0; bx < (subKW+r-1)/r; bx++ {
					out = append(out, unitGeom{ry: ry, rx: rx, by: by, bx: bx})
				}
			}
		}
	}
	return out
}

// NumUnits reports how many stride-1 RxR sub-convolutions the DWM
// decomposition of a (kh x kw, stride) kernel produces, from geometry alone.
// It is the unit count Layer.Units() observes after construction, shared
// with the systolic cost model and the hwfault schedule mapping.
func NumUnits(kh, kw, stride, r int) int { return len(unitGeoms(kh, kw, stride, r)) }

// CensusFor computes a full winograd layer's op census (DWM units plus the
// summation segment) from geometry alone, without materializing weights.
func CensusFor(in tensor.Shape, outC, kh, kw, stride, pad int, bias bool, t *Tile) fault.Census {
	oh := (in.H+2*pad-kh)/stride + 1
	ow := (in.W+2*pad-kw)/stride + 1
	uin := tensor.Shape{N: in.N, C: in.C, H: oh + t.R - 1, W: ow + t.R - 1}
	units := unitGeoms(kh, kw, stride, t.R)
	var c fault.Census
	for range units {
		c = c.AddCensus(coreCensus(t, uin, outC))
	}
	perOut := int64(len(units) - 1)
	if bias {
		perOut++
	}
	c.Add += int64(in.N) * int64(outC) * int64(oh) * int64(ow) * perOut
	return c
}

// NewLayer builds a winograd layer for an arbitrary odd or even square (or
// rectangular) kernel with any stride >= 1.
func NewLayer(w *tensor.Tensor, bias []float64, stride, pad int, t *Tile, wFmt, outFmt fixed.Format) *Layer {
	if stride < 1 {
		panic("winograd: stride must be >= 1")
	}
	if pad < 0 {
		panic("winograd: negative padding")
	}
	outC, inC := w.Shape.N, w.Shape.C
	if bias != nil && len(bias) != outC {
		panic(fmt.Sprintf("winograd: bias length %d != out channels %d", len(bias), outC))
	}
	l := &Layer{
		Tile:   t,
		Stride: stride,
		Pad:    pad,
		KH:     w.Shape.H,
		KW:     w.Shape.W,
		InC:    inC,
		OutC:   outC,
		BiasF:  bias,
		OutFmt: outFmt,
		WFrac:  wFmt.Frac,
	}
	r := t.R
	for _, ug := range unitGeoms(l.KH, l.KW, stride, r) {
		sub := tensor.New(tensor.Shape{N: outC, C: inC, H: r, W: r})
		for o := 0; o < outC; o++ {
			for c := 0; c < inC; c++ {
				for u := 0; u < r; u++ {
					ky := stride*(ug.by*r+u) + ug.ry
					if ky >= l.KH {
						continue
					}
					for vv := 0; vv < r; vv++ {
						kx := stride*(ug.bx*r+vv) + ug.rx
						if kx >= l.KW {
							continue
						}
						sub.Set(o, c, u, vv, w.At(o, c, ky, kx))
					}
				}
			}
		}
		l.units = append(l.units, unit{
			p:  NewParams(sub, t, wFmt),
			ry: ug.ry, rx: ug.rx,
			sy: ug.by * r, sx: ug.bx * r,
		})
	}
	return l
}

// OutShape returns the layer's output shape.
func (l *Layer) OutShape(in tensor.Shape) tensor.Shape {
	oh := (in.H+2*l.Pad-l.KH)/l.Stride + 1
	ow := (in.W+2*l.Pad-l.KW)/l.Stride + 1
	return tensor.Shape{N: in.N, C: l.OutC, H: oh, W: ow}
}

// unitInShape is the gathered input extent each unit convolves over.
func (l *Layer) unitInShape(in tensor.Shape) tensor.Shape {
	out := l.OutShape(in)
	return tensor.Shape{N: in.N, C: in.C, H: out.H + l.Tile.R - 1, W: out.W + l.Tile.R - 1}
}

// Census returns exact op counts: all unit censuses plus the accumulator
// summation segment.
func (l *Layer) Census(in tensor.Shape) fault.Census {
	uin := l.unitInShape(in)
	var c fault.Census
	for _, u := range l.units {
		c = c.AddCensus(u.p.Census(uin))
	}
	out := l.OutShape(in)
	perOut := int64(len(l.units) - 1)
	if l.BiasF != nil {
		perOut++
	}
	c.Add += int64(out.Elems()) * perOut
	return c
}

// EventImage returns the image of in whose output ev lands on (the rule in
// the Layer doc). An event beyond the census maps outside [0, in.N).
func (l *Layer) EventImage(in tensor.Shape, ev fault.Event) int {
	uin := l.unitInShape(in)
	p := l.units[0].p
	tiles := p.tiles(uin)
	n := p.Census(uin).Class(ev.Class)
	units := int64(len(l.units))
	if ev.Op < units*n {
		sites := p.siteLayout(tiles)
		nt, _ := sites.site(ev.Class, ev.Op%n)
		return int(nt / (tiles / int64(in.N)))
	}
	perOut := l.sumAddsPerOut()
	if ev.Class != fault.OpAdd || perOut == 0 {
		return in.N
	}
	out := l.OutShape(in)
	return int((ev.Op - units*n) / perOut / int64(out.Elems()/out.N))
}

// sumAddsPerOut returns the summation-segment adds per output element.
func (l *Layer) sumAddsPerOut() int64 {
	n := int64(len(l.units) - 1)
	if l.BiasF != nil {
		n++
	}
	return n
}

// Scratch is the reusable buffer arena of one Layer's forward passes: the
// per-unit gathered input views, the shared core scratch of the DWM units,
// the int64 working set, the accumulator-domain bias vector and the
// recycled output tensor. The zero value is ready to use; a Scratch belongs
// to one (Layer, goroutine) pair and makes steady-state fault-free passes
// allocation-free. See DESIGN.md, memory model.
type Scratch struct {
	// Backend selects the compute backend of every tile, faulty or not;
	// nil means the process default (kernel.Default). Backends are
	// bit-identical by contract, and the sites a fault touches replay on
	// the scalar census walk whatever the backend.
	Backend kernel.Backend
	// Buffers, when set, is the int64 working set the scratch shares with
	// the other layers its goroutine runs; nil gives it its own.
	Buffers *Buffers

	core    coreScratch       // shared by the units (identical geometry)
	gather  []*tensor.QTensor // per-unit gathered input views
	bias    []int64           // accumulator-scale bias, cached per input fmt
	biasFmt fixed.Format      // input format the cached bias was scaled for
	biasOK  bool              // bias cache valid
	out     *tensor.QTensor   // recycled requantized output
	cur     fault.Cursor      // this pass's events, keyed by replay site
}

// gather materializes the unit's input view of the selected images into g:
// subsample by stride at residue (ry,rx), shift by (sy,sx) sub-grid pixels,
// with virtual zero padding. The set of written positions depends on
// geometry alone, so a recycled g whose skipped positions are still zero
// from allocation stays correct across passes.
func (l *Layer) gather(in *tensor.QTensor, u unit, uin tensor.Shape, g *tensor.QTensor, images tensor.ImageSet) *tensor.QTensor {
	inH, inW := in.Shape.H, in.Shape.W
	for n := 0; n < uin.N; n++ {
		if !images.Has(n) {
			continue
		}
		for c := 0; c < uin.C; c++ {
			inChan := (n*uin.C + c) * inH * inW
			for i := 0; i < uin.H; i++ {
				yIn := l.Stride*(i+u.sy) + u.ry - l.Pad
				if yIn < 0 || yIn >= inH {
					continue
				}
				dst := uin.Index(n, c, i, 0)
				inRow := inChan + yIn*inW
				if l.Stride == 1 {
					// xIn = j + off is contiguous: copy the valid segment.
					off := u.sx + u.rx - l.Pad
					j0, j1 := 0, uin.W
					if off < 0 {
						j0 = -off
					}
					if j1 > inW-off {
						j1 = inW - off
					}
					if j0 < j1 {
						copy(g.Data[dst+j0:dst+j1], in.Data[inRow+j0+off:inRow+j1+off])
					}
					continue
				}
				for j := 0; j < uin.W; j++ {
					xIn := l.Stride*(j+u.sx) + u.rx - l.Pad
					if xIn < 0 || xIn >= inW {
						continue
					}
					g.Data[dst+j] = in.Data[inRow+xIn]
				}
			}
		}
	}
	return g
}

// Forward computes the fault-free layer.
func (l *Layer) Forward(in *tensor.QTensor) *tensor.QTensor {
	return l.ForwardFaulty(in, nil)
}

// ForwardFaulty computes the layer with fault events applied bit-exactly,
// allocating fresh buffers. Hot paths use ForwardFaultyCtx with a reusable
// Scratch.
func (l *Layer) ForwardFaulty(in *tensor.QTensor, events []fault.Event) *tensor.QTensor {
	return l.ForwardFaultyCtx(&Scratch{}, in, events, nil)
}

// accumBias returns the bias vector scaled to the accumulator domain,
// cached in sc per input format (the scale depends only on in.Fmt.Frac,
// which is constant across the rounds of a campaign).
func (l *Layer) accumBias(sc *Scratch, inFmt fixed.Format) []int64 {
	if l.BiasF == nil {
		return nil
	}
	if sc.biasOK && sc.biasFmt == inFmt {
		return sc.bias
	}
	biasScale := float64(int64(1) << uint(inFmt.Frac+l.WFrac+l.Tile.FracExtra))
	if cap(sc.bias) < len(l.BiasF) {
		sc.bias = make([]int64, len(l.BiasF))
	}
	sc.bias = sc.bias[:len(l.BiasF)]
	for oc, b := range l.BiasF {
		s := b * biasScale
		if s >= 0 {
			sc.bias[oc] = int64(s + 0.5)
		} else {
			sc.bias[oc] = int64(s - 0.5)
		}
	}
	sc.biasFmt = inFmt
	sc.biasOK = true
	return sc.bias
}

// loadCursor keys the layer's events by replay site (the layout in the Layer
// doc) and sorts them, panicking on an event beyond the census. It returns
// the key block of one unit and the offset of its summation step.
func (l *Layer) loadCursor(cur *fault.Cursor, uin tensor.Shape, elems int64, events []fault.Event) (block, sumOff int64) {
	p := l.units[0].p
	sites := p.siteLayout(p.tiles(uin))
	unit, units := p.Census(uin), int64(len(l.units))
	sumOff = sites.ntTotal * sites.span
	block = sumOff + elems
	perOut := l.sumAddsPerOut()
	cur.Reset()
	for _, ev := range events {
		n := unit.Class(ev.Class)
		if ui := ev.Op / n; ui < units {
			cur.Push(ui*block+sites.key(ev.Class, ev.Op%n), ev)
			continue
		}
		op := ev.Op - units*n
		if ev.Class != fault.OpAdd || op >= elems*perOut {
			panic(fmt.Sprintf("winograd: %v event index %d beyond census", ev.Class, ev.Op))
		}
		// Summation add op = element·perOut + step; step s adds unit s+1.
		cur.Push((op%perOut+1)*block+sumOff+op/perOut, ev)
	}
	cur.Sort()
	return block, sumOff
}

// ForwardFaultyCtx computes the layer with fault events applied bit-exactly,
// drawing every buffer from sc and computing only the images in images (nil:
// all); every event must land on a selected image, and the output of an
// unselected image is unspecified. Results are bit-identical to
// ForwardFaulty; the returned tensor aliases sc and is valid until the next
// call with the same scratch.
func (l *Layer) ForwardFaultyCtx(sc *Scratch, in *tensor.QTensor, events []fault.Event, images tensor.ImageSet) *tensor.QTensor {
	if sc == nil {
		sc = &Scratch{}
	}
	if in.Shape.C != l.InC {
		panic(fmt.Sprintf("winograd: input channels %d != %d", in.Shape.C, l.InC))
	}
	uin := l.unitInShape(in.Shape)
	outShape := l.OutShape(in.Shape)
	bk := sc.Backend
	if bk == nil {
		bk = kernel.Default()
	}

	if sc.Buffers == nil {
		sc.Buffers = new(Buffers)
	}
	sc.core.Buffers = sc.Buffers
	elems := int64(outShape.Elems())
	per := outShape.C * outShape.H * outShape.W // elements of one image
	cur := &sc.cur
	block, sumOff := l.loadCursor(cur, uin, elems, events)

	// Run units and sum in the accumulator domain, image by image. The
	// summation step of unit ui (or, after the last unit, the bias) with
	// events walks every element through fault.Add, consuming its cursor
	// keys in order. A one-unit layer sums nothing, so it accumulates in
	// place in the unit's own buffer.
	var acc []int64
	if len(l.units) > 1 {
		acc = i64(&sc.Buffers.sum, outShape.Elems())
	}
	shift := in.Fmt.Frac + l.WFrac + l.Tile.FracExtra - l.OutFmt.Frac
	if len(sc.gather) != len(l.units) {
		sc.gather = make([]*tensor.QTensor, len(l.units))
	}

	for ui, u := range l.units {
		if sc.gather[ui] == nil || sc.gather[ui].Shape != uin || sc.gather[ui].Fmt != in.Fmt {
			sc.gather[ui] = tensor.NewQ(uin, in.Fmt)
		}
		g := l.gather(in, u, uin, sc.gather[ui], images)
		ua, us := u.p.forwardAcc(&sc.core, bk, g, cur, int64(ui)*block, images)
		if us != outShape {
			panic(fmt.Sprintf("winograd: unit output %v != layer output %v", us, outShape))
		}
		if acc == nil {
			acc = ua
			continue
		}
		key := int64(ui)*block + sumOff
		faulty := cur.Below(key + elems)
		for n := 0; n < outShape.N; n++ {
			if !images.Has(n) {
				continue
			}
			lo := n * per
			dst, src := acc[lo:lo+per], ua[lo:lo+per]
			switch {
			case ui == 0:
				copy(dst, src)
			case !faulty:
				for i, a := range src {
					dst[i] += a
				}
			default:
				for i, a := range src {
					dst[i] = fault.Add(dst[i], a, cur.At(key+int64(lo+i)))
				}
			}
		}
	}
	if bias := l.accumBias(sc, in.Fmt); bias != nil {
		outs := outShape.H * outShape.W
		key := int64(len(l.units))*block + sumOff
		faulty := cur.Below(key + elems)
		for n := 0; n < outShape.N; n++ {
			if !images.Has(n) {
				continue
			}
			for oc, b := range bias {
				lo := n*per + oc*outs
				dst := acc[lo : lo+outs]
				if !faulty {
					for i := range dst {
						dst[i] += b
					}
					continue
				}
				for i := range dst {
					dst[i] = fault.Add(dst[i], b, cur.At(key+int64(lo+i)))
				}
			}
		}
	}
	cur.Done()

	if sc.out == nil || sc.out.Shape != outShape || sc.out.Fmt != l.OutFmt {
		sc.out = tensor.NewQ(outShape, l.OutFmt)
	}
	out := sc.out
	for n := 0; n < outShape.N; n++ {
		if !images.Has(n) {
			continue
		}
		for i := n * per; i < (n+1)*per; i++ {
			out.Data[i] = l.OutFmt.RequantizeShift(acc[i], shift)
		}
	}
	return out
}

// Units reports how many 3x3 winograd sub-convolutions the DWM decomposition
// produced (1 for the native 3x3 stride-1 case).
func (l *Layer) Units() int { return len(l.units) }
