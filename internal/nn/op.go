// Package nn provides the quantized inference graph the fault-injection
// campaigns run on: convolution (direct or winograd engine), fully-connected,
// activation, pooling, residual-add, concat and flatten ops composed into a
// DAG. Every compute op exposes an exact operation census and accepts
// operation-level fault events, so a whole network forward pass can be
// corrupted bit-exactly at sampled multiply/add sites. ForwardDelta runs a
// fault round by recomputing only where it can differ from a reference
// plane: the golden run, or a captured faulty round (see delta.go).
package nn

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// Op is one node operation of the inference graph.
type Op interface {
	// Kind is a short operation type tag ("conv", "relu", ...).
	Kind() string
	// OutShape maps input shapes to the output shape.
	OutShape(ins []tensor.Shape) tensor.Shape
	// Census returns the op's primitive-operation counts (zero for ops with
	// no multiply/add arithmetic, e.g. ReLU and max-pooling).
	Census(ins []tensor.Shape) fault.Census
	// Forward computes the op with the given fault events applied, drawing
	// reusable buffers from sc (nil means allocate fresh ones). The returned
	// tensor may alias sc and stays valid until the next Forward call with
	// the same scratch.
	Forward(sc *Scratch, ins []*tensor.QTensor, events []fault.Event) *tensor.QTensor
}

// ReLU is the rectified linear activation. It performs no counted arithmetic.
type ReLU struct{}

func (ReLU) Kind() string                             { return "relu" }
func (ReLU) OutShape(ins []tensor.Shape) tensor.Shape { return ins[0] }
func (ReLU) Census(ins []tensor.Shape) fault.Census   { return fault.Census{} }
func (ReLU) Forward(sc *Scratch, ins []*tensor.QTensor, _ []fault.Event) *tensor.QTensor {
	in := ins[0]
	out := sc.Output(in.Shape, in.Fmt)
	for i, v := range in.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// MaxPool is max pooling with a square window. Comparisons are not counted
// arithmetic; padding contributes nothing (max over valid positions).
type MaxPool struct {
	K, Stride, Pad int
}

func (MaxPool) Kind() string { return "maxpool" }

func (p MaxPool) OutShape(ins []tensor.Shape) tensor.Shape {
	in := ins[0]
	return tensor.Shape{
		N: in.N, C: in.C,
		H: (in.H+2*p.Pad-p.K)/p.Stride + 1,
		W: (in.W+2*p.Pad-p.K)/p.Stride + 1,
	}
}

func (MaxPool) Census(ins []tensor.Shape) fault.Census { return fault.Census{} }

func (p MaxPool) Forward(sc *Scratch, ins []*tensor.QTensor, _ []fault.Event) *tensor.QTensor {
	in := ins[0]
	os := p.OutShape([]tensor.Shape{in.Shape})
	out := sc.Output(os, in.Fmt)
	for n := 0; n < os.N; n++ {
		for c := 0; c < os.C; c++ {
			for oy := 0; oy < os.H; oy++ {
				for ox := 0; ox < os.W; ox++ {
					best := in.Fmt.Min()
					seen := false
					for ky := 0; ky < p.K; ky++ {
						y := oy*p.Stride + ky - p.Pad
						if y < 0 || y >= in.Shape.H {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							x := ox*p.Stride + kx - p.Pad
							if x < 0 || x >= in.Shape.W {
								continue
							}
							if v := in.At(n, c, y, x); !seen || v > best {
								best = v
								seen = true
							}
						}
					}
					if !seen {
						best = 0
					}
					out.Set(n, c, oy, ox, best)
				}
			}
		}
	}
	return out
}

// AvgPool is average pooling (padding counts as zeros, divisor is K²).
// The window summation is counted arithmetic: K²-1 adds per output.
// Op ordering: add index = flatOut·(K²-1) + s, window walked row-major.
// AvgPool, GlobalAvgPool and Add walk their adds in census order, so an
// event's replay key (the fault.Cursor layout) is its op index, whatever
// its class. Their add spaces start with n, so an add event lands on image
// op ÷ (adds ÷ N).
type AvgPool struct {
	K, Stride, Pad int
}

func (AvgPool) Kind() string { return "avgpool" }

func (p AvgPool) OutShape(ins []tensor.Shape) tensor.Shape {
	in := ins[0]
	return tensor.Shape{
		N: in.N, C: in.C,
		H: (in.H+2*p.Pad-p.K)/p.Stride + 1,
		W: (in.W+2*p.Pad-p.K)/p.Stride + 1,
	}
}

func (p AvgPool) Census(ins []tensor.Shape) fault.Census {
	os := p.OutShape(ins)
	return fault.Census{Add: int64(os.Elems()) * int64(p.K*p.K-1)}
}

func (p AvgPool) Forward(sc *Scratch, ins []*tensor.QTensor, events []fault.Event) *tensor.QTensor {
	in := ins[0]
	os := p.OutShape([]tensor.Shape{in.Shape})
	out := sc.Output(os, in.Fmt)
	perOut := int64(p.K*p.K - 1)
	cur := sc.cursor("avgpool", int64(os.Elems())*perOut, events)
	div := int64(p.K * p.K)
	for n := 0; n < os.N; n++ {
		for c := 0; c < os.C; c++ {
			for oy := 0; oy < os.H; oy++ {
				for ox := 0; ox < os.W; ox++ {
					flat := os.Index(n, c, oy, ox)
					var acc int64
					step := int64(flat) * perOut
					first := true
					for ky := 0; ky < p.K; ky++ {
						y := oy*p.Stride + ky - p.Pad
						for kx := 0; kx < p.K; kx++ {
							x := ox*p.Stride + kx - p.Pad
							var v int64
							if y >= 0 && y < in.Shape.H && x >= 0 && x < in.Shape.W {
								v = int64(in.At(n, c, y, x))
							}
							if first {
								acc = v
								first = false
								continue
							}
							acc = fault.Add(acc, v, cur.At(step))
							step++
						}
					}
					out.Data[flat] = in.Fmt.Saturate(roundDiv(acc, div))
				}
			}
		}
	}
	cur.Done()
	return out
}

// GlobalAvgPool averages each channel map to 1x1.
// Op ordering: add index = (n·C+c)·(HW-1) + s.
type GlobalAvgPool struct{}

func (GlobalAvgPool) Kind() string { return "gap" }

func (GlobalAvgPool) OutShape(ins []tensor.Shape) tensor.Shape {
	in := ins[0]
	return tensor.Shape{N: in.N, C: in.C, H: 1, W: 1}
}

func (GlobalAvgPool) Census(ins []tensor.Shape) fault.Census {
	in := ins[0]
	return fault.Census{Add: int64(in.N) * int64(in.C) * int64(in.H*in.W-1)}
}

func (GlobalAvgPool) Forward(sc *Scratch, ins []*tensor.QTensor, events []fault.Event) *tensor.QTensor {
	in := ins[0]
	os := tensor.Shape{N: in.Shape.N, C: in.Shape.C, H: 1, W: 1}
	out := sc.Output(os, in.Fmt)
	hw := in.Shape.H * in.Shape.W
	perOut := int64(hw - 1)
	cur := sc.cursor("gap", int64(os.Elems())*perOut, events)
	for n := 0; n < os.N; n++ {
		for c := 0; c < os.C; c++ {
			flat := os.Index(n, c, 0, 0)
			base := in.Shape.Index(n, c, 0, 0)
			acc := int64(in.Data[base])
			step := int64(flat) * perOut
			for i := 1; i < hw; i++ {
				acc = fault.Add(acc, int64(in.Data[base+i]), cur.At(step))
				step++
			}
			out.Data[flat] = in.Fmt.Saturate(roundDiv(acc, int64(hw)))
		}
	}
	cur.Done()
	return out
}

// Add is the residual elementwise addition of two equal-shape tensors.
// Op ordering: add index = element flat index.
type Add struct{}

func (Add) Kind() string { return "add" }

func (Add) OutShape(ins []tensor.Shape) tensor.Shape {
	if ins[0] != ins[1] {
		panic(fmt.Sprintf("nn: residual add shape mismatch %v vs %v", ins[0], ins[1]))
	}
	return ins[0]
}

func (Add) Census(ins []tensor.Shape) fault.Census {
	return fault.Census{Add: int64(ins[0].Elems())}
}

func (Add) Forward(sc *Scratch, ins []*tensor.QTensor, events []fault.Event) *tensor.QTensor {
	a, b := ins[0], ins[1]
	if a.Shape != b.Shape {
		panic("nn: residual add shape mismatch")
	}
	out := sc.Output(a.Shape, a.Fmt)
	cur := sc.cursor("add", int64(len(a.Data)), events)
	for i := range a.Data {
		s := fault.Add(int64(a.Data[i]), int64(b.Data[i]), cur.At(int64(i)))
		out.Data[i] = a.Fmt.Saturate(s)
	}
	cur.Done()
	return out
}

// Concat concatenates along the channel axis.
type Concat struct{}

func (Concat) Kind() string { return "concat" }

func (Concat) OutShape(ins []tensor.Shape) tensor.Shape {
	s := ins[0]
	c := 0
	for _, in := range ins {
		if in.N != s.N || in.H != s.H || in.W != s.W {
			panic(fmt.Sprintf("nn: concat spatial mismatch %v vs %v", in, s))
		}
		c += in.C
	}
	s.C = c
	return s
}

func (Concat) Census(ins []tensor.Shape) fault.Census { return fault.Census{} }

func (Concat) Forward(sc *Scratch, ins []*tensor.QTensor, _ []fault.Event) *tensor.QTensor {
	os := concatOutShape(ins)
	out := sc.Output(os, ins[0].Fmt)
	for n := 0; n < os.N; n++ {
		cOff := 0
		for _, in := range ins {
			for c := 0; c < in.Shape.C; c++ {
				src := in.Shape.Index(n, c, 0, 0)
				dst := os.Index(n, cOff+c, 0, 0)
				copy(out.Data[dst:dst+os.H*os.W], in.Data[src:src+os.H*os.W])
			}
			cOff += in.Shape.C
		}
	}
	return out
}

// Flatten reshapes to {N, C·H·W, 1, 1} for the FC head.
type Flatten struct{}

func (Flatten) Kind() string { return "flatten" }

func (Flatten) OutShape(ins []tensor.Shape) tensor.Shape {
	in := ins[0]
	return tensor.Shape{N: in.N, C: in.C * in.H * in.W, H: 1, W: 1}
}

func (Flatten) Census(ins []tensor.Shape) fault.Census { return fault.Census{} }

func (Flatten) Forward(sc *Scratch, ins []*tensor.QTensor, _ []fault.Event) *tensor.QTensor {
	in := ins[0]
	out := sc.Output(Flatten{}.OutShape([]tensor.Shape{in.Shape}), in.Fmt)
	copy(out.Data, in.Data)
	return out
}

// concatOutShape computes the concat output shape directly from the input
// tensors, avoiding the per-call shape-slice allocation of OutShape.
func concatOutShape(ins []*tensor.QTensor) tensor.Shape {
	s := ins[0].Shape
	c := 0
	for _, in := range ins {
		if in.Shape.N != s.N || in.Shape.H != s.H || in.Shape.W != s.W {
			panic(fmt.Sprintf("nn: concat spatial mismatch %v vs %v", in.Shape, s))
		}
		c += in.Shape.C
	}
	s.C = c
	return s
}

// roundDiv divides rounding half away from zero.
func roundDiv(v, n int64) int64 {
	if v >= 0 {
		return (v + n/2) / n
	}
	return -((-v + n/2) / n)
}
