package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fixed"
	"repro/internal/rng"
)

func TestShapeIndexRoundTrip(t *testing.T) {
	s := Shape{2, 3, 4, 5}
	seen := make(map[int]bool)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					idx := s.Index(n, c, h, w)
					if idx < 0 || idx >= s.Elems() {
						t.Fatalf("index out of range: %d", idx)
					}
					if seen[idx] {
						t.Fatalf("index collision at %d", idx)
					}
					seen[idx] = true
				}
			}
		}
	}
	if len(seen) != s.Elems() {
		t.Fatalf("covered %d of %d elements", len(seen), s.Elems())
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 1, 1, 1}).Valid() {
		t.Error("unit shape should be valid")
	}
	for _, s := range []Shape{{0, 1, 1, 1}, {1, -1, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}} {
		if s.Valid() {
			t.Errorf("shape %v should be invalid", s)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid shape did not panic")
		}
	}()
	New(Shape{0, 1, 1, 1})
}

func TestAtSet(t *testing.T) {
	tt := New(Shape{1, 2, 3, 3})
	tt.Set(0, 1, 2, 1, 7.5)
	if got := tt.At(0, 1, 2, 1); got != 7.5 {
		t.Errorf("At = %v", got)
	}
	if got := tt.At(0, 0, 0, 0); got != 0 {
		t.Errorf("zero element = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(Shape{1, 1, 2, 2})
	a.Fill(3)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 3 {
		t.Error("Clone shares storage")
	}
}

// TestQImages: an image range views exactly those images of the batch, in
// place, and cannot grow into the next image.
func TestQImages(t *testing.T) {
	q := NewQ(Shape{5, 2, 3, 1}, fixed.Int16)
	for i := range q.Data {
		q.Data[i] = int32(i)
	}
	v := q.Images(1, 3)
	if v.Shape != (Shape{2, 2, 3, 1}) || v.Fmt != q.Fmt {
		t.Fatalf("view shape %v fmt %v", v.Shape, v.Fmt)
	}
	for n := 0; n < 2; n++ {
		for c := 0; c < 2; c++ {
			for h := 0; h < 3; h++ {
				if v.At(n, c, h, 0) != q.At(n+1, c, h, 0) {
					t.Fatalf("view (%d,%d,%d) = %d, batch has %d", n, c, h, v.At(n, c, h, 0), q.At(n+1, c, h, 0))
				}
			}
		}
	}
	if cap(v.Data) != len(v.Data) {
		t.Error("the view can grow into the next image")
	}
	v.Data[0] = -1
	if q.Data[6] != -1 {
		t.Error("the view does not share the batch's data")
	}
	for _, r := range [][2]int{{-1, 2}, {2, 2}, {3, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Images(%d, %d) did not panic", r[0], r[1])
				}
			}()
			q.Images(r[0], r[1])
		}()
	}
}

func TestPad2D(t *testing.T) {
	a := New(Shape{1, 2, 2, 2})
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
	}
	p := a.Pad2D(1)
	want := Shape{1, 2, 4, 4}
	if p.Shape != want {
		t.Fatalf("padded shape = %v, want %v", p.Shape, want)
	}
	// Border must be zero.
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			if p.At(0, c, 0, i) != 0 || p.At(0, c, 3, i) != 0 ||
				p.At(0, c, i, 0) != 0 || p.At(0, c, i, 3) != 0 {
				t.Fatal("padding border not zero")
			}
		}
	}
	// Interior must match.
	for c := 0; c < 2; c++ {
		for h := 0; h < 2; h++ {
			for w := 0; w < 2; w++ {
				if p.At(0, c, h+1, w+1) != a.At(0, c, h, w) {
					t.Fatal("padded interior mismatch")
				}
			}
		}
	}
	// Pad 0 returns an equal, independent copy.
	z := a.Pad2D(0)
	if !AllClose(a, z, 0) {
		t.Error("Pad2D(0) changed values")
	}
	z.Data[0] = -1
	if a.Data[0] == -1 {
		t.Error("Pad2D(0) shares storage")
	}
}

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	r := rng.New(1)
	a := New(Shape{1, 3, 8, 8}).Random(r, 1.0)
	f := CalibrateTensors(16, a)
	q := Quantize(a, f)
	back := Dequantize(q)
	if d := MaxAbsDiff(a, back); d > f.Scale()/2+1e-12 {
		t.Errorf("quantize round trip error %v exceeds half LSB %v", d, f.Scale()/2)
	}
}

func TestQuantizePropertyBounded(t *testing.T) {
	f := fixed.Int8
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		q := f.Quantize(x)
		return q >= f.Min() && q <= f.Max()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQPad2D(t *testing.T) {
	q := NewQ(Shape{1, 1, 2, 2}, fixed.Int16)
	q.Set(0, 0, 0, 0, 5)
	q.Set(0, 0, 1, 1, -5)
	p := q.Pad2D(2)
	if p.Shape != (Shape{1, 1, 6, 6}) {
		t.Fatalf("shape = %v", p.Shape)
	}
	if p.At(0, 0, 2, 2) != 5 || p.At(0, 0, 3, 3) != -5 {
		t.Error("interior values misplaced")
	}
	if p.At(0, 0, 0, 0) != 0 || p.At(0, 0, 5, 5) != 0 {
		t.Error("padding not zero")
	}
}

func TestCalibrate(t *testing.T) {
	cases := []struct {
		width  int
		maxAbs float64
		frac   int
	}{
		{16, 0, 15},
		{16, 0.9, 15},  // fits in sign + 0 int bits? 2^0=1 > 0.9 -> intBits=1, frac=15
		{16, 1.0, 14},  // needs 2^1 range
		{16, 100, 8},   // 2^7=128 > 100 -> intBits 8, frac 8
		{16, 40000, 0}, // overflows: clamp
		{8, 6.7, 4},    // 2^3=8 > 6.7 -> intBits 4, frac 4
	}
	for _, c := range cases {
		f := Calibrate(c.width, c.maxAbs)
		if f.Frac != c.frac || f.Width != c.width {
			t.Errorf("Calibrate(%d,%v) = %v, want frac %d", c.width, c.maxAbs, f, c.frac)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("Calibrate produced invalid format: %v", err)
		}
	}
}

func TestCalibrateCoversRange(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		a := math.Abs(x)
		if math.IsNaN(a) || math.IsInf(a, 0) || a > 1e30 {
			return true
		}
		f := Calibrate(16, a)
		if f.Frac == 0 {
			return true // saturating regime is allowed for huge values
		}
		// The format must represent a without saturating (within rounding).
		q := f.Quantize(a)
		return math.Abs(f.Dequantize(q)-a) <= f.Scale()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestL2AndMaxDiff(t *testing.T) {
	a := New(Shape{1, 1, 1, 4})
	b := New(Shape{1, 1, 1, 4})
	copy(a.Data, []float64{1, 2, 3, 4})
	copy(b.Data, []float64{1, 2, 3, 8})
	if got := MaxAbsDiff(a, b); got != 4 {
		t.Errorf("MaxAbsDiff = %v", got)
	}
	if got := L2Diff(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("L2Diff = %v, want 2", got)
	}
	if !AllClose(a, b, 4) || AllClose(a, b, 3.9) {
		t.Error("AllClose thresholds wrong")
	}
}

func TestL2DiffShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	L2Diff(New(Shape{1, 1, 1, 2}), New(Shape{1, 1, 2, 1}))
}

func TestRandomDeterministic(t *testing.T) {
	a := New(Shape{1, 1, 4, 4}).Random(rng.New(5), 2.0)
	b := New(Shape{1, 1, 4, 4}).Random(rng.New(5), 2.0)
	if !AllClose(a, b, 0) {
		t.Error("Random with same stream seed differs")
	}
	var sum float64
	big := New(Shape{1, 4, 64, 64}).Random(rng.New(6), 2.0)
	for _, v := range big.Data {
		sum += v * v
	}
	std := math.Sqrt(sum / float64(len(big.Data)))
	if math.Abs(std-2) > 0.1 {
		t.Errorf("Random std = %v, want ~2", std)
	}
}
