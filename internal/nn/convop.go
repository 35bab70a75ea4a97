package nn

import (
	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// EngineKind selects how convolution layers are executed. The network's
// neurons are identical either way ("lossless conversion", paper §3.1); what
// changes is the arithmetic — and therefore the operation-level fault
// surface.
type EngineKind int

const (
	// Direct is standard convolution (ST-Conv in the paper).
	Direct EngineKind = iota
	// Winograd is winograd convolution (WG-Conv), with DWM decomposition for
	// kernels other than 3x3 stride 1. Spatial 1x1 convolutions and FC
	// layers have no winograd form and run identically in both kinds.
	Winograd
)

func (k EngineKind) String() string {
	if k == Winograd {
		return "winograd"
	}
	return "direct"
}

// ConvOp is a convolution (or, via 1x1 kernels on flattened activations, a
// fully-connected) layer bound to one execution engine.
type ConvOp struct {
	direct *conv.Params
	wg     *winograd.Layer
}

// NewConv builds a convolution op. Weights are float and quantized inside
// the chosen engine; winograd is only used for spatial kernels (K >= 2).
func NewConv(w *tensor.Tensor, bias []float64, stride, pad int, kind EngineKind,
	tile *winograd.Tile, wFmt, outFmt fixed.Format) *ConvOp {
	if kind == Winograd && (w.Shape.H >= 2 || w.Shape.W >= 2) {
		return &ConvOp{wg: winograd.NewLayer(w, bias, stride, pad, tile, wFmt, outFmt)}
	}
	return &ConvOp{direct: conv.NewParams(w, bias, stride, pad, wFmt, outFmt)}
}

// NewFC builds a fully-connected layer as a 1x1 convolution over {N,C,1,1}
// activations. wMat is {outFeatures, inFeatures}.
func NewFC(wMat *tensor.Tensor, bias []float64, wFmt, outFmt fixed.Format) *ConvOp {
	if wMat.Shape.H != 1 || wMat.Shape.W != 1 {
		panic("nn: FC weight must have shape {out, in, 1, 1}")
	}
	return &ConvOp{direct: conv.NewParams(wMat, bias, 1, 0, wFmt, outFmt)}
}

// IsWinograd reports whether this op runs on the winograd engine.
func (o *ConvOp) IsWinograd() bool { return o.wg != nil }

func (o *ConvOp) Kind() string {
	if o.wg != nil {
		return "conv/wg"
	}
	return "conv"
}

func (o *ConvOp) OutShape(ins []tensor.Shape) tensor.Shape {
	if o.wg != nil {
		return o.wg.OutShape(ins[0])
	}
	return o.direct.OutShape(ins[0])
}

func (o *ConvOp) Census(ins []tensor.Shape) fault.Census {
	if o.wg != nil {
		return o.wg.Census(ins[0])
	}
	return o.direct.Census(ins[0])
}

func (o *ConvOp) Forward(sc *Scratch, ins []*tensor.QTensor, events []fault.Event) *tensor.QTensor {
	return o.forwardImages(sc, ins, events, nil)
}

// forwardImages is Forward computing only the images in images (nil: all);
// every event must land on one of them, and the output of the others is
// unspecified.
func (o *ConvOp) forwardImages(sc *Scratch, ins []*tensor.QTensor, events []fault.Event, images tensor.ImageSet) *tensor.QTensor {
	if o.wg != nil {
		return o.wg.ForwardFaultyCtx(sc.wgScratch(), ins[0], events, images)
	}
	return conv.ForwardFaultyCtx(sc.convScratch(), ins[0], o.direct, events, images)
}
