package winograd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Params is one quantized stride-1 RxR winograd convolution (the DWM layer
// composes several of these for other kernel shapes). It produces
// accumulator-domain (int64) outputs at fixed-point scale
// 2^-(inFrac + wFrac + FracExtra); the caller requantizes.
//
// Operation ordering contract (census <-> fault replay), nt = n·tiles+tile:
//
//	mul index = ((nt·OC + oc)·C + c)·T² + pos
//	add index, four consecutive segments:
//	  IT:   (nt·C + c)·itAdds + s                     input transform
//	  CA:   itTotal  + ((nt·OC+oc)·(C-1) + (c-1))·T² + pos   channel accumulation
//	  OT:   +caTotal + (nt·OC + oc)·otAdds + s        output transform
//
// Bias is deliberately absent here: the composing layer owns it. Replay
// keys (the fault.Cursor layout) are siteLayout's, in replay.go. Every
// segment is image-major in nt, so an event lands on image nt ÷ tiles per
// image (Layer.EventImage).
type Params struct {
	Tile  *Tile
	OutC  int
	InC   int
	UT    []int32 // transformed weights U[oc][c][pos] stored as [pos][oc][c], frac = WFrac+FracExtra
	WFrac int     // fractional bits of the original weight format
	WBits int     // width of the weight/activation operand registers
}

// NewParams transforms and quantizes the weights (shape {outC, inC, R, R})
// for the given tile. The transform runs offline in float64 and is quantized
// with FracExtra guard bits, so runtime arithmetic is pure integer.
func NewParams(w *tensor.Tensor, t *Tile, wFmt fixed.Format) *Params {
	if w.Shape.H != t.R || w.Shape.W != t.R {
		panic(fmt.Sprintf("winograd: weight %dx%d does not match %s", w.Shape.H, w.Shape.W, t.Name))
	}
	T := t.T()
	outC, inC := w.Shape.N, w.Shape.C
	p := &Params{
		Tile:  t,
		OutC:  outC,
		InC:   inC,
		UT:    make([]int32, T*T*outC*inC),
		WFrac: wFmt.Frac,
		WBits: wFmt.Width,
	}
	// Both the Hadamard kernels and a replayed chain (oc, pos) sum over
	// input channels at fixed (position, output channel); storing the
	// weights position-major makes that sum walk them with stride 1.
	scale := float64(int64(1) << uint(wFmt.Frac+t.FracExtra))
	g, tmp, u := make([]float64, t.R*t.R), make([]float64, T*t.R), make([]float64, T*T)
	for o := 0; o < outC; o++ {
		for c := 0; c < inC; c++ {
			for ky := 0; ky < t.R; ky++ {
				for kx := 0; kx < t.R; kx++ {
					g[ky*t.R+kx] = w.At(o, c, ky, kx)
				}
			}
			transformFilter(t, g, tmp, u)
			for i, v := range u {
				s := v * scale
				if s >= 0 {
					p.UT[(i*outC+o)*inC+c] = int32(s + 0.5)
				} else {
					p.UT[(i*outC+o)*inC+c] = int32(s - 0.5)
				}
			}
		}
	}
	return p
}

// AccFracExtra returns the extra fractional bits of the accumulator domain
// relative to a direct convolution with the same formats.
func (p *Params) AccFracExtra() int { return p.Tile.FracExtra }

// OutShape returns the stride-1 output shape for an input already including
// any padding the caller wants (Params itself applies no padding).
func (p *Params) OutShape(in tensor.Shape) tensor.Shape {
	return tensor.Shape{N: in.N, C: p.OutC, H: in.H - p.Tile.R + 1, W: in.W - p.Tile.R + 1}
}

// tileGrid returns the tile counts covering an output extent.
func (p *Params) tileGrid(out tensor.Shape) (tilesY, tilesX int) {
	m := p.Tile.M
	return (out.H + m - 1) / m, (out.W + m - 1) / m
}

// tiles returns the number of tiles of one pass over in, all images.
func (p *Params) tiles(in tensor.Shape) int64 {
	tilesY, tilesX := p.tileGrid(p.OutShape(in))
	return int64(in.N) * int64(tilesY) * int64(tilesX)
}

// Census returns the exact op counts of one forward pass over the given
// (unpadded-by-us) input shape.
func (p *Params) Census(in tensor.Shape) fault.Census {
	return coreCensus(p.Tile, in, p.OutC)
}

// coreCensus computes a stride-1 RxR winograd core's op census from geometry
// alone (in must already include padding; in.C is the input channel count).
func coreCensus(t *Tile, in tensor.Shape, outC int) fault.Census {
	oh, ow := in.H-t.R+1, in.W-t.R+1
	m := t.M
	tilesY, tilesX := (oh+m-1)/m, (ow+m-1)/m
	nt := int64(in.N) * int64(tilesY) * int64(tilesX)
	t2 := int64(t.MulsPerTileChannel())
	muls := nt * int64(outC) * int64(in.C) * t2
	it := nt * int64(in.C) * int64(t.InputAdds())
	ca := nt * int64(outC) * int64(in.C-1) * t2
	ot := nt * int64(outC) * int64(t.OutputAdds())
	return fault.Census{Mul: muls, Add: it + ca + ot}
}

// Buffers is the int64 working set of winograd forward passes: a core's
// accumulator and transform buffers and a DWM layer's summation
// accumulator. No layer's result aliases them once its pass returns, so
// layers that run one at a time — the layers of one nn.ExecContext — can
// share one Buffers: each buffer grows by capacity to the largest layer's
// need and is recycled afterwards, so steady-state passes stay
// allocation-free. The zero value is ready to use; a Buffers is never used
// by two passes at once.
type Buffers struct {
	acc  []int64 // a core's accumulator-domain output, outShape.Elems()
	sum  []int64 // a DWM layer's summation accumulator, outShape.Elems()
	d    []int64 // one TxT input tile
	v    []int64 // transformed input, [c][T²]
	vT   []int64 // v transposed to [pos][c]
	msum []int64 // Hadamard sums, [oc][T²]
	y    []int64 // one MxM output tile
	tmp  []int64 // matTransform intermediate
}

// coreScratch holds every buffer one Params forward pass needs: the int64
// working set, which must be set, and the extended input copy, whose zero
// border is written only when it is allocated, so it is recycled only for
// its own geometry and stays with its layer. A
// coreScratch may be shared sequentially by several Params of identical
// geometry (the DWM units of one layer) but never concurrently.
type coreScratch struct {
	*Buffers
	ext *tensor.QTensor // extended input copy (tile overhang); zero border
}

// i64 returns a recycled []int64 of length n (contents unspecified).
func i64(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	return (*buf)[:n]
}

// ForwardAcc computes the layer into an accumulator-domain buffer indexed by
// out.Shape.Index, applying any fault events bit-exactly. The input must be
// pre-padded by the caller. The returned buffer is freshly allocated; hot
// paths reach the scratch-reusing forwardAcc through Layer.ForwardFaultyCtx,
// whose winograd.Scratch owns the core scratch.
func (p *Params) ForwardAcc(in *tensor.QTensor, events []fault.Event) ([]int64, tensor.Shape) {
	var cur fault.Cursor
	p.loadCursor(&cur, in.Shape, events)
	acc, s := p.forwardAcc(&coreScratch{Buffers: new(Buffers)}, kernel.Default(), in, &cur, 0, nil)
	cur.Done()
	return acc, s
}

// forwardAcc is ForwardAcc against a caller-owned scratch, compute backend
// and loaded cursor, whose keys for this pass start at keyBase (siteLayout),
// computing only the images in images (nil: all): the returned slice aliases
// cs.acc, is unspecified at unselected images and is valid until the next
// call with the same scratch. Every tile runs through bk; a tile with events
// then replays just the input transforms, Hadamard chains and output
// transforms its events touch on the census-ordered scalar walk (replay.go),
// so a fault's effect never depends on the backend.
func (p *Params) forwardAcc(cs *coreScratch, bk kernel.Backend, in *tensor.QTensor, evs *fault.Cursor, keyBase int64, images tensor.ImageSet) ([]int64, tensor.Shape) {
	if in.Shape.C != p.InC {
		panic(fmt.Sprintf("winograd: input channels %d != %d", in.Shape.C, p.InC))
	}
	outShape := p.OutShape(in.Shape)
	if outShape.H <= 0 || outShape.W <= 0 {
		panic(fmt.Sprintf("winograd: input %v too small for %s", in.Shape, p.Tile.Name))
	}
	tilesY, tilesX := p.tileGrid(outShape)

	// Extend the input so every tile reads a full TxT window. The recycled
	// buffer's overhang border is written only by NewQ's zeroing: interior
	// rows are refreshed every pass, the border is geometry-dependent only.
	t, m, T := p.Tile, p.Tile.M, p.Tile.T()
	needH := (tilesY-1)*m + T
	needW := (tilesX-1)*m + T
	ext := in
	if needH > in.Shape.H || needW > in.Shape.W {
		extShape := tensor.Shape{N: in.Shape.N, C: in.Shape.C, H: needH, W: needW}
		if cs.ext == nil || cs.ext.Shape != extShape || cs.ext.Fmt != in.Fmt {
			cs.ext = tensor.NewQ(extShape, in.Fmt)
		}
		ext = cs.ext
		for n := 0; n < in.Shape.N; n++ {
			if !images.Has(n) {
				continue
			}
			for c := 0; c < in.Shape.C; c++ {
				for y := 0; y < in.Shape.H; y++ {
					src := in.Shape.Index(n, c, y, 0)
					dst := ext.Shape.Index(n, c, y, 0)
					copy(ext.Data[dst:dst+in.Shape.W], in.Data[src:src+in.Shape.W])
				}
			}
		}
	}

	// The tile walk below visits nt in strictly increasing order and each
	// tile's sites in key order, so the sorted events are consumed front to
	// back and a fault-free tile pays only cursor comparisons. A skipped
	// image carries no events, so skipping it consumes none.
	sites := p.siteLayout(p.tiles(in.Shape))

	t2 := T * T
	acc := i64(&cs.acc, outShape.Elems())
	d := i64(&cs.d, t2)
	v := i64(&cs.v, p.InC*t2)
	vT := i64(&cs.vT, t2*p.InC)
	msum := i64(&cs.msum, p.OutC*t2)
	y := i64(&cs.y, m*m)
	tmp := i64(&cs.tmp, t2)

	extW := ext.Shape.W
	extChan := ext.Shape.H * extW
	outW := outShape.W
	outChan := outShape.H * outW
	inC, outC := p.InC, p.OutC
	kt, fast := t.kernelTile()

	for n := 0; n < in.Shape.N; n++ {
		if !images.Has(n) {
			continue
		}
		extBatch := n * inC * extChan
		outBatch := n * outC * outChan
		for ty := 0; ty < tilesY; ty++ {
			// Rows/cols of this tile row that land inside the output.
			mi := m
			if rest := outShape.H - ty*m; rest < m {
				mi = rest
			}
			for tx := 0; tx < tilesX; tx++ {
				key := keyBase + ((int64(n)*int64(tilesY)+int64(ty))*int64(tilesX)+int64(tx))*sites.span
				// Input transform per channel, then transpose to
				// position-major for the Hadamard stage.
				tileBase := extBatch + ty*m*extW + tx*m
				for c := 0; c < inC; c++ {
					base := tileBase + c*extChan
					if fast {
						bk.InputRows(kt, ext.Data[base:base+(T-1)*extW+T], extW, v[c*t2:(c+1)*t2])
						continue
					}
					for i := 0; i < T; i++ {
						row := ext.Data[base : base+T : base+T]
						for j := 0; j < T; j++ {
							d[i*T+j] = int64(row[j])
						}
						base += extW
					}
					matTransform(t.BT, T, T, d, v[c*t2:(c+1)*t2], tmp)
				}
				// Replay the input transforms that carry events: each faulty
				// V row feeds the backend Hadamard and every replayed chain.
				for evs.Below(key + sites.itPer) {
					c := int((evs.Peek() - key) / sites.itAdds)
					base := tileBase + c*extChan
					for i := 0; i < T; i++ {
						for j := 0; j < T; j++ {
							d[i*T+j] = int64(ext.Data[base+j])
						}
						base += extW
					}
					matTransformReplay(t.BT, T, T, d, v[c*t2:(c+1)*t2], tmp, evs, key+int64(c)*sites.itAdds)
				}
				for c := 0; c < inC; c++ {
					vb := c * t2
					for i := 0; i < t2; i++ {
						vT[i*inC+c] = v[vb+i]
					}
				}
				// Hadamard + channel accumulation. For each (position, out
				// channel) both the weight row UT[i][o][:] and the activation
				// row vT[i][:] are contiguous; every backend sums exactly that
				// product set in int64, so the results are bit-identical no
				// matter how the backend blocks the loops.
				bk.Hadamard(msum, vT, p.UT, t2, outC, inC)
				// Replay the chains that carry events; chain o·T²+pos is
				// msum's element of the same index.
				for evs.Below(key + sites.otOff) {
					chain := int((evs.Peek() - key - sites.itPer) / (2 * sites.inC))
					msum[chain] = p.replayChain(evs, v, chain/t2, chain%t2, t2,
						key+sites.itPer+int64(chain)*2*sites.inC)
				}
				// Output transform + write-out per out channel.
				mj := m
				if rest := outShape.W - tx*m; rest < m {
					mj = rest
				}
				for o := 0; o < outC; o++ {
					ot := key + sites.otOff + int64(o)*sites.otAdds
					switch {
					case evs.Below(ot + sites.otAdds):
						matTransformReplay(t.AT, m, T, msum[o*t2:(o+1)*t2], y, tmp, evs, ot)
					case fast:
						bk.Output(kt, msum[o*t2:(o+1)*t2], y)
					default:
						matTransform(t.AT, m, T, msum[o*t2:(o+1)*t2], y, tmp)
					}
					rowBase := outBatch + o*outChan + ty*m*outW + tx*m
					for i := 0; i < mi; i++ {
						for j := 0; j < mj; j++ {
							acc[rowBase+j] = y[i*m+j]
						}
						rowBase += outW
					}
				}
			}
		}
	}
	return acc, outShape
}
