// Package conv implements standard (direct) convolution over quantized
// tensors: the fast fault-free path, the exact operation census used by the
// statistical fault sampler, and the bit-exact replay path that applies
// sampled fault events to individual multiply/accumulate operations.
//
// Operation ordering (the contract between Census and fault replay):
//
//	mul index  = ((((n·OC+oc)·OH+oy)·OW+ox)·K + k,   k over (ic,ky,kx) row-major
//	add index  = (((n·OC+oc)·OH+oy)·OW+ox)·A + s
//
// where K = IC·KH·KW products feed each output, and A = K-1 accumulation adds
// plus one bias add when a bias is present. Add step s<K-1 merges product s+1
// into the running partial; the final step adds the bias.
//
// Replay keys (the fault.Cursor layout): output element e, the flat index
// both op indices above start with, owns keys [e·(2K+2), (e+1)·(2K+2)):
// product s at 2s, the add that merges product s (s ≥ 1) at 2s+1, and the
// bias add at 2K+1. Add step s therefore keys 2s+3, and the walk replays
// touched outputs in key order.
//
// Image of an event: both op indices start with n, so each class's census
// is N equal image-major runs and an event of class cl lands on image
// op ÷ (census(cl) ÷ N). A pass may compute a subset of its batch's
// images; events land only on the images it computes.
package conv

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Params holds the immutable configuration of one convolution layer.
type Params struct {
	Weight *tensor.QTensor // Shape{N: outC, C: inC, H: kh, W: kw}
	BiasF  []float64       // per-out-channel bias in real units; nil for none
	Stride int
	Pad    int
	OutFmt fixed.Format
}

// NewParams quantizes a float weight tensor into wFmt and bundles the layer
// configuration. The bias stays in real units and is requantized per call to
// the accumulator scale of the incoming activation format.
func NewParams(w *tensor.Tensor, bias []float64, stride, pad int, wFmt, outFmt fixed.Format) *Params {
	if stride < 1 {
		panic("conv: stride must be >= 1")
	}
	if pad < 0 {
		panic("conv: negative padding")
	}
	if bias != nil && len(bias) != w.Shape.N {
		panic(fmt.Sprintf("conv: bias length %d != out channels %d", len(bias), w.Shape.N))
	}
	return &Params{
		Weight: tensor.Quantize(w, wFmt),
		BiasF:  bias,
		Stride: stride,
		Pad:    pad,
		OutFmt: outFmt,
	}
}

// OutShape returns the output shape for an input shape.
func (p *Params) OutShape(in tensor.Shape) tensor.Shape {
	kh, kw := p.Weight.Shape.H, p.Weight.Shape.W
	oh := (in.H+2*p.Pad-kh)/p.Stride + 1
	ow := (in.W+2*p.Pad-kw)/p.Stride + 1
	return tensor.Shape{N: in.N, C: p.Weight.Shape.N, H: oh, W: ow}
}

// Census returns the exact primitive-operation counts of one forward pass.
func (p *Params) Census(in tensor.Shape) fault.Census {
	return CensusFor(in, p.Weight.Shape.N, p.Weight.Shape.H, p.Weight.Shape.W,
		p.Stride, p.Pad, p.BiasF != nil)
}

// CensusFor computes the direct-convolution op census from geometry alone,
// without materializing weights — used to derive full-size (paper-scale)
// fault intensities for scaled-down models.
func CensusFor(in tensor.Shape, outC, kh, kw, stride, pad int, bias bool) fault.Census {
	oh := (in.H+2*pad-kh)/stride + 1
	ow := (in.W+2*pad-kw)/stride + 1
	k := int64(in.C) * int64(kh) * int64(kw)
	outs := int64(in.N) * int64(outC) * int64(oh) * int64(ow)
	adds := k - 1
	if bias {
		adds++
	}
	return fault.Census{Mul: outs * k, Add: outs * adds}
}

// accumBias returns the bias vector scaled to the accumulator's fixed-point
// scale 2^(inFrac+wFrac).
func (p *Params) accumBias(inFmt fixed.Format) []int64 {
	if p.BiasF == nil {
		return nil
	}
	shift := inFmt.Frac + p.Weight.Fmt.Frac
	out := make([]int64, len(p.BiasF))
	for i, b := range p.BiasF {
		v := b * float64(int64(1)<<uint(shift))
		if v >= 0 {
			out[i] = int64(v + 0.5)
		} else {
			out[i] = int64(v - 0.5)
		}
	}
	return out
}

// Scratch is the reusable buffer arena of one layer's forward passes: the
// padded-input copy, the recycled output tensor, the accumulator-row buffer
// and the accumulator-scale bias cache. The zero value is ready to use; a
// Scratch belongs to one (Params, goroutine) pair and makes steady-state
// passes allocation-free. See DESIGN.md, memory model.
//
// Backend selects the compute backend for the fault-free fast path (see
// internal/kernel); nil means the process default. Every backend is
// bit-identical, so the choice can never change a result — the fault-replay
// path ignores it entirely and always runs the reference scalar code.
type Scratch struct {
	Backend kernel.Backend

	padded  *tensor.QTensor
	out     *tensor.QTensor
	accRow  []int64
	bias    []int64
	biasFmt fixed.Format
	biasOK  bool
	cur     fault.Cursor // this pass's events, keyed by replay site
}

// cachedBias returns accumBias through the scratch cache (the scale depends
// only on in.Fmt.Frac, constant across a campaign's rounds).
func (p *Params) cachedBias(sc *Scratch, inFmt fixed.Format) []int64 {
	if p.BiasF == nil {
		return nil
	}
	if !sc.biasOK || sc.biasFmt != inFmt {
		sc.bias = p.accumBias(inFmt)
		sc.biasFmt = inFmt
		sc.biasOK = true
	}
	return sc.bias
}

// padInput returns the input extended by p.Pad zero rows/columns on every
// spatial side, recycled from sc. For Pad == 0 the input itself is returned
// (it is only ever read). The recycled buffer's zero border is written only
// at allocation: interior rows of the selected images are refreshed every
// pass and the border is geometry-dependent only.
func (p *Params) padInput(sc *Scratch, in *tensor.QTensor, images tensor.ImageSet) *tensor.QTensor {
	if p.Pad == 0 {
		return in
	}
	s := in.Shape
	ps := tensor.Shape{N: s.N, C: s.C, H: s.H + 2*p.Pad, W: s.W + 2*p.Pad}
	if sc.padded == nil || sc.padded.Shape != ps || sc.padded.Fmt != in.Fmt {
		sc.padded = tensor.NewQ(ps, in.Fmt)
	}
	dst := sc.padded
	for n := 0; n < s.N; n++ {
		if !images.Has(n) {
			continue
		}
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				srcBase := s.Index(n, c, h, 0)
				dstBase := ps.Index(n, c, h+p.Pad, p.Pad)
				copy(dst.Data[dstBase:dstBase+s.W], in.Data[srcBase:srcBase+s.W])
			}
		}
	}
	return dst
}

// Forward computes the fault-free convolution.
func Forward(in *tensor.QTensor, p *Params) *tensor.QTensor {
	return ForwardFaulty(in, p, nil)
}

// ForwardFaulty computes the convolution with the given fault events applied
// bit-exactly at their op sites, allocating fresh buffers. Hot paths use
// ForwardFaultyCtx with a reusable Scratch.
func ForwardFaulty(in *tensor.QTensor, p *Params, events []fault.Event) *tensor.QTensor {
	return ForwardFaultyCtx(&Scratch{}, in, p, events, nil)
}

// ForwardFaultyCtx is ForwardFaulty drawing every buffer from sc, computing
// only the images in images (nil: all). The fast path computes the selected
// images through sc's compute backend (see internal/kernel; every backend is
// bit-identical), then every output element touched by an event is
// recomputed through the scalar replay path with its events applied in op
// order; every event must land on a selected image. The output of an
// unselected image is unspecified. The returned tensor aliases sc and is
// valid until the next call with the same scratch.
func ForwardFaultyCtx(sc *Scratch, in *tensor.QTensor, p *Params, events []fault.Event, images tensor.ImageSet) *tensor.QTensor {
	if sc == nil {
		sc = &Scratch{}
	}
	bk := sc.Backend
	if bk == nil {
		bk = kernel.Default()
	}
	ws := p.Weight.Shape
	if in.Shape.C != ws.C {
		panic(fmt.Sprintf("conv: input channels %d != weight channels %d", in.Shape.C, ws.C))
	}
	padded := p.padInput(sc, in, images)
	outShape := p.OutShape(in.Shape)
	if sc.out == nil || sc.out.Shape != outShape || sc.out.Fmt != p.OutFmt {
		sc.out = tensor.NewQ(outShape, p.OutFmt)
	}
	out := sc.out
	bias := p.cachedBias(sc, in.Fmt)
	shift := in.Fmt.Frac + p.Weight.Fmt.Frac - p.OutFmt.Frac

	oc, oh, ow := outShape.C, outShape.H, outShape.W
	ic, kh, kw := ws.C, ws.H, ws.W
	ph, pw := padded.Shape.H, padded.Shape.W

	if kh == 1 && kw == 1 && ph == 1 && pw == 1 {
		// Fully-connected case (1x1 kernel over a 1x1 plane): both operand
		// rows are contiguous, so the whole output element is one dot.
		for n := 0; n < outShape.N; n++ {
			if !images.Has(n) {
				continue
			}
			a := padded.Data[n*ic : (n+1)*ic]
			for o := 0; o < oc; o++ {
				var b int64
				if bias != nil {
					b = bias[o]
				}
				acc := bk.Dot(a, p.Weight.Data[o*ic:(o+1)*ic], b)
				out.Data[n*oc+o] = p.OutFmt.RequantizeShift(acc, shift)
			}
		}
	} else {
		rows, cols := oh, ow
		if kh == 1 && kw == 1 && p.Stride == 1 {
			// The output plane has the padded input plane's shape and
			// output (y, x) reads input (y, x), so the two share one flat
			// layout: each output plane is a single row of oh·ow columns.
			rows, cols = 1, oh*ow
		}
		if cap(sc.accRow) < cols {
			sc.accRow = make([]int64, cols)
		}
		accRow := sc.accRow[:cols]
		chanStride := ph * pw
		for n := 0; n < outShape.N; n++ {
			if !images.Has(n) {
				continue
			}
			for o := 0; o < oc; o++ {
				var b int64
				if bias != nil {
					b = bias[o]
				}
				wBase := o * ic * kh * kw
				wRow := p.Weight.Data[wBase : wBase+ic*kh*kw]
				for oy := 0; oy < rows; oy++ {
					inBase := (n*in.Shape.C*ph + oy*p.Stride) * pw
					bk.ConvRow(accRow, padded.Data, wRow, b, inBase, p.Stride, ic, kh, kw, chanStride, pw)
					outRow := outShape.Index(n, o, oy, 0)
					for ox := 0; ox < cols; ox++ {
						out.Data[outRow+ox] = p.OutFmt.RequantizeShift(accRow[ox], shift)
					}
				}
			}
		}
	}

	p.replayFaults(sc, padded, out, bias, shift, events)
	return out
}

// replayFaults keys every event by its replay site, panicking on an event
// beyond the census, and recomputes each touched output in key order.
func (p *Params) replayFaults(sc *Scratch, padded, out *tensor.QTensor, bias []int64, shift int, events []fault.Event) {
	k := int64(p.Weight.Shape.C) * int64(p.Weight.Shape.H) * int64(p.Weight.Shape.W)
	span, outs, adds := 2*k+2, int64(out.Shape.Elems()), k-1
	if p.BiasF != nil {
		adds++
	}
	cur := &sc.cur
	cur.Reset()
	for _, ev := range events {
		if ev.Class == fault.OpMul && ev.Op < outs*k {
			cur.Push(ev.Op/k*span+ev.Op%k*2, ev)
		} else if ev.Class == fault.OpAdd && ev.Op < outs*adds {
			cur.Push(ev.Op/adds*span+ev.Op%adds*2+3, ev)
		} else {
			panic(fmt.Sprintf("conv: %v event index %d beyond census", ev.Class, ev.Op))
		}
	}
	cur.Sort()
	os := out.Shape
	for cur.Below(outs * span) {
		flat := int(cur.Peek() / span)
		ox, oy := flat%os.W, flat/os.W%os.H
		o, n := flat/(os.W*os.H)%os.C, flat/(os.W*os.H*os.C)
		out.Data[flat] = p.replayOutput(padded, bias, shift, n, o, oy, ox, cur, int64(flat)*span)
	}
	cur.Done()
}

// replayOutput recomputes one output element executing the MAC chain in op
// order, consuming the cursor's events from the output's first key on; what
// an event does to its operation (operand or result flip, as marked where
// the event was created) is fault.Mul's and fault.Add's rule.
func (p *Params) replayOutput(padded *tensor.QTensor, bias []int64, shift int, n, o, oy, ox int, cur *fault.Cursor, key int64) int32 {
	ws := p.Weight.Shape
	ic, kh, kw := ws.C, ws.H, ws.W
	w := p.Weight
	iy0, ix0 := oy*p.Stride, ox*p.Stride
	ph, pw := padded.Shape.H, padded.Shape.W

	var acc int64
	for c := 0; c < ic; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				a := int64(padded.Data[((n*padded.Shape.C+c)*ph+iy0+ky)*pw+ix0+kx])
				b := int64(w.Data[((o*ic+c)*kh+ky)*kw+kx])
				prod := fault.Mul(a, b, cur.At(key))
				if c == 0 && ky == 0 && kx == 0 {
					acc = prod
				} else {
					acc = fault.Add(acc, prod, cur.At(key+1))
				}
				key += 2
			}
		}
	}
	if p.BiasF != nil {
		acc = fault.Add(acc, bias[o], cur.At(key+1))
	}
	return p.OutFmt.RequantizeShift(acc, shift)
}
