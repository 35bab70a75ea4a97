package kernel

import (
	"math/rand"
	"os"
	"testing"
)

// randInts fills a slice with full-range int16-ish operand values (the
// engines never feed the kernels anything wider than the quantized formats,
// but the ring argument holds for any int32, so test the full range).
func randInts(r *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Uint32())
	}
	return out
}

func randInt64s(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(int32(r.Uint32()))
	}
	return out
}

// TestRegistry pins the registry contract: both shipped backends resolve by
// name, the empty name resolves to the default, and unknown names error with
// the available set.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"scalar", "blocked"} {
		b, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, b.Name())
		}
	}
	if b, err := Get(""); err != nil || b == nil {
		t.Errorf("Get(\"\") = %v, %v; want the default backend", b, err)
	}
	if _, err := Get("simd-avx512"); err == nil {
		t.Error("Get of an unregistered backend did not error")
	}
	names := Names()
	if len(names) < 2 || names[0] != "blocked" || names[1] != "scalar" {
		t.Errorf("Names() = %v, want sorted [blocked scalar ...]", names)
	}
}

// TestConvRowBitIdentical drives both backends over randomized geometries
// and operands and requires byte-equal accumulator rows. This is the
// kernel-level half of the cross-backend differential guarantee; the
// engine-level half lives in the repo-root backend tests.
func TestConvRowBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sc, bl := scalar{}, blocked{}
	for trial := 0; trial < 200; trial++ {
		ic := 1 + r.Intn(5)
		kh := 1 + r.Intn(4)
		kw := 1 + r.Intn(4)
		stride := 1 + r.Intn(3)
		ow := 1 + r.Intn(11) // exercises the 4-wide blocks and all remainders
		rowStride := kw + (ow-1)*stride + r.Intn(3)
		chanStride := rowStride * (kh + r.Intn(3))
		in := randInts(r, chanStride*ic)
		w := randInts(r, ic*kh*kw)
		bias := int64(int32(r.Uint32()))
		want := make([]int64, ow)
		got := make([]int64, ow)
		sc.ConvRow(want, in, w, bias, 0, stride, ic, kh, kw, chanStride, rowStride)
		bl.ConvRow(got, in, w, bias, 0, stride, ic, kh, kw, chanStride, rowStride)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d (ic=%d kh=%d kw=%d stride=%d ow=%d): acc[%d] scalar %d != blocked %d",
					trial, ic, kh, kw, stride, ow, i, want[i], got[i])
			}
		}
	}
}

// TestDotBitIdentical: the FC dot must agree for every length (unroll blocks
// plus remainders) including the empty row.
func TestDotBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sc, bl := scalar{}, blocked{}
	for n := 0; n <= 37; n++ {
		a := randInts(r, n)
		b := randInts(r, n)
		bias := int64(int32(r.Uint32()))
		if want, got := sc.Dot(a, b, bias), bl.Dot(a, b, bias); want != got {
			t.Fatalf("Dot len %d: scalar %d != blocked %d", n, want, got)
		}
	}
}

// TestHadamardBitIdentical covers odd/even channel counts on both tile
// sizes, so the paired-output-channel and 2-wide-channel remainders are all
// exercised.
func TestHadamardBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sc, bl := scalar{}, blocked{}
	for _, t2 := range []int{16, 36} {
		for _, outC := range []int{1, 2, 3, 8, 13} {
			for _, inC := range []int{1, 2, 3, 4, 7, 16} {
				vt := randInt64s(r, t2*inC)
				ut := randInts(r, t2*outC*inC)
				want := make([]int64, outC*t2)
				got := make([]int64, outC*t2)
				sc.Hadamard(want, vt, ut, t2, outC, inC)
				bl.Hadamard(got, vt, ut, t2, outC, inC)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("t2=%d outC=%d inC=%d: msum[%d] scalar %d != blocked %d",
							t2, outC, inC, i, want[i], got[i])
					}
				}
			}
		}
	}
}

// TestTransformsShared: the transform entry points must agree across
// backends (they share one implementation; this pins that they keep doing
// so if a backend ever specializes them).
func TestTransformsShared(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	sc, bl := scalar{}, blocked{}
	for _, tc := range []struct {
		tile Tile
		t, m int
	}{{F2, 4, 2}, {F4, 6, 4}} {
		stride := tc.t + 3
		src := randInts(r, (tc.t-1)*stride+tc.t)
		a := make([]int64, tc.t*tc.t)
		b := make([]int64, tc.t*tc.t)
		sc.InputRows(tc.tile, src, stride, a)
		bl.InputRows(tc.tile, src, stride, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tile %v: InputRows[%d] %d != %d", tc.tile, i, a[i], b[i])
			}
		}
		msum := randInt64s(r, tc.t*tc.t)
		ya := make([]int64, tc.m*tc.m)
		yb := make([]int64, tc.m*tc.m)
		sc.Output(tc.tile, msum, ya)
		bl.Output(tc.tile, msum, yb)
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("tile %v: Output[%d] %d != %d", tc.tile, i, ya[i], yb[i])
			}
		}
	}
}

// TestDefault pins the process default: blocked, unless WF_BACKEND names
// another backend.
func TestDefault(t *testing.T) {
	want := os.Getenv("WF_BACKEND")
	if want == "" {
		want = "blocked"
	}
	if got := Default().Name(); got != want {
		t.Errorf("Default().Name() = %q with WF_BACKEND=%q, want %q", got, os.Getenv("WF_BACKEND"), want)
	}
}
