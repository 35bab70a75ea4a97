// Package tensor provides the minimal NCHW tensor types shared by the
// convolution engines: a float64 reference tensor used for calibration and
// golden checks, and a quantized tensor storing Q-format integers, which is
// what the fault-injection engines actually operate on.
package tensor

import (
	"fmt"
	"math"

	"repro/internal/fixed"
	"repro/internal/rng"
)

// Shape describes an NCHW tensor extent. FC activations use H = W = 1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the total number of elements.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Valid reports whether all extents are positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	return fmt.Sprintf("[%dx%dx%dx%d]", s.N, s.C, s.H, s.W)
}

// Index converts NCHW coordinates to a flat offset.
func (s Shape) Index(n, c, h, w int) int {
	return ((n*s.C+c)*s.H+h)*s.W + w
}

// ImageSet is a bitset over the images of a batch: bit n%64 of word n/64
// selects image n. The nil set selects every image.
type ImageSet []uint64

// Has reports whether image n is in the set.
func (s ImageSet) Has(n int) bool { return s == nil || s[n>>6]>>(n&63)&1 != 0 }

// Tensor is a dense float64 NCHW tensor.
type Tensor struct {
	Shape Shape
	Data  []float64
}

// New allocates a zero tensor of the given shape.
func New(s Shape) *Tensor {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{Shape: s, Data: make([]float64, s.Elems())}
}

// At returns the element at (n,c,h,w).
func (t *Tensor) At(n, c, h, w int) float64 { return t.Data[t.Shape.Index(n, c, h, w)] }

// Set stores v at (n,c,h,w).
func (t *Tensor) Set(n, c, h, w int, v float64) { t.Data[t.Shape.Index(n, c, h, w)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape)
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// MaxAbs returns the largest absolute element value (0 for empty data).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Random fills the tensor with N(0, std²) values from the stream and
// returns it, for deterministic synthetic weights and inputs.
func (t *Tensor) Random(r *rng.Stream, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = r.NormFloat64() * std
	}
	return t
}

// Pad2D returns a copy of t with p rows/columns of zeros added on every
// spatial side. p == 0 returns a clone.
func (t *Tensor) Pad2D(p int) *Tensor {
	if p < 0 {
		panic("tensor: negative padding")
	}
	if p == 0 {
		return t.Clone()
	}
	s := t.Shape
	out := New(Shape{s.N, s.C, s.H + 2*p, s.W + 2*p})
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				srcBase := s.Index(n, c, h, 0)
				dstBase := out.Shape.Index(n, c, h+p, p)
				copy(out.Data[dstBase:dstBase+s.W], t.Data[srcBase:srcBase+s.W])
			}
		}
	}
	return out
}

// L2Diff returns the root-mean-square difference between two tensors of the
// same shape.
func L2Diff(a, b *Tensor) float64 {
	if a.Shape != b.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	var sum float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a.Data)))
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.Shape != b.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// AllClose reports whether all elements differ by at most tol.
func AllClose(a, b *Tensor, tol float64) bool { return MaxAbsDiff(a, b) <= tol }

// QTensor is a quantized NCHW tensor: Data holds Q-format stored integers
// interpreted through Fmt.
type QTensor struct {
	Shape Shape
	Fmt   fixed.Format
	Data  []int32
}

// NewQ allocates a zero quantized tensor.
func NewQ(s Shape, f fixed.Format) *QTensor {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &QTensor{Shape: s, Fmt: f, Data: make([]int32, s.Elems())}
}

// At returns the stored integer at (n,c,h,w).
func (q *QTensor) At(n, c, h, w int) int32 { return q.Data[q.Shape.Index(n, c, h, w)] }

// Set stores v at (n,c,h,w).
func (q *QTensor) Set(n, c, h, w int, v int32) { q.Data[q.Shape.Index(n, c, h, w)] = v }

// Images returns images [lo, hi) of the batch q as a tensor that shares q's
// data: images are NCHW's outermost extent, so they are one contiguous run.
func (q *QTensor) Images(lo, hi int) *QTensor {
	if lo < 0 || hi > q.Shape.N || lo >= hi {
		panic(fmt.Sprintf("tensor: bad image range [%d,%d) of %d", lo, hi, q.Shape.N))
	}
	sh := q.Shape
	per := sh.C * sh.H * sh.W
	sh.N = hi - lo
	return &QTensor{Shape: sh, Fmt: q.Fmt, Data: q.Data[lo*per : hi*per : hi*per]}
}

// Clone returns a deep copy.
func (q *QTensor) Clone() *QTensor {
	out := NewQ(q.Shape, q.Fmt)
	copy(out.Data, q.Data)
	return out
}

// Quantize converts a float tensor into the given format with
// round-half-away-from-zero and saturation.
func Quantize(t *Tensor, f fixed.Format) *QTensor {
	q := NewQ(t.Shape, f)
	for i, v := range t.Data {
		q.Data[i] = f.Quantize(v)
	}
	return q
}

// Dequantize converts a quantized tensor back to floats.
func Dequantize(q *QTensor) *Tensor {
	t := New(q.Shape)
	scale := q.Fmt.Scale()
	for i, v := range q.Data {
		t.Data[i] = float64(v) * scale
	}
	return t
}

// Pad2D returns a zero-padded copy (zero is exact in Q-format).
func (q *QTensor) Pad2D(p int) *QTensor {
	if p < 0 {
		panic("tensor: negative padding")
	}
	if p == 0 {
		return q.Clone()
	}
	s := q.Shape
	out := NewQ(Shape{s.N, s.C, s.H + 2*p, s.W + 2*p}, q.Fmt)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				srcBase := s.Index(n, c, h, 0)
				dstBase := out.Shape.Index(n, c, h+p, p)
				copy(out.Data[dstBase:dstBase+s.W], q.Data[srcBase:srcBase+s.W])
			}
		}
	}
	return out
}

// Calibrate selects a Q-format of the given width whose integer range covers
// maxAbs with one bit of headroom, the standard symmetric power-of-two
// calibration for fixed-point DNN inference. A maxAbs of zero yields the
// maximum fractional precision.
func Calibrate(width int, maxAbs float64) fixed.Format {
	if maxAbs <= 0 {
		return fixed.Format{Width: width, Frac: width - 1}
	}
	intBits := 1 // sign
	for math.Ldexp(1, intBits-1) <= maxAbs {
		intBits++
		if intBits >= width {
			return fixed.Format{Width: width, Frac: 0}
		}
	}
	return fixed.Format{Width: width, Frac: width - intBits}
}

// CalibrateTensors picks a format of the given width covering the max
// absolute value across all the given tensors.
func CalibrateTensors(width int, ts ...*Tensor) fixed.Format {
	m := 0.0
	for _, t := range ts {
		if a := t.MaxAbs(); a > m {
			m = a
		}
	}
	return Calibrate(width, m)
}
