package kernel

import "testing"

// fuzzOperands deals int32 operands out of the fuzz bytes, four bytes each,
// cycling through them; empty data deals zeros.
type fuzzOperands struct {
	data []byte
	i    int
}

func (f *fuzzOperands) next() int32 {
	if len(f.data) == 0 {
		return 0
	}
	var v uint32
	for k := 0; k < 4; k++ {
		v = v<<8 | uint32(f.data[f.i%len(f.data)])
		f.i++
	}
	return int32(v)
}

func (f *fuzzOperands) ints(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = f.next()
	}
	return out
}

// FuzzBackends decodes one direct-conv row (ic 1–8, kh and kw 1–7, stride
// 1–3, ow 1–16, up to 3 extra elements of row pitch, up to 7 of channel
// pitch and a row offset of up to 3), one dot product of length 0–39 and
// one Hadamard block (F2 or F4 positions, outC and inC 1–16), with operands
// drawn from the fuzz bytes. It requires blocked's ConvRow, Dot and
// Hadamard to equal scalar's bit for bit.
func FuzzBackends(f *testing.F) {
	data := []byte("\x80\x00\x00\x01\x7f\xff\xff\xfe\x12\x34\x56\x78\x9a\xbc\xde\xf0\x00\x00\x00\x00\xff\xff\xff\xff\x01")
	seed := func(ic, kh, kw, stride, ow, dot, outC, inC uint8) {
		f.Add(ic, kh, kw, stride, ow, uint8(1), uint8(2), uint8(1), dot, outC, inC, ow%2 == 0, data)
	}
	for ow := uint8(1); ow <= 8; ow++ {
		// The stride-1 3-wide path: every remainder after the 4-wide blocks.
		seed(3, 3, 3, 1, ow, ow-1, 2*ow-1, 2*ow+1)
	}
	for ow := uint8(1); ow <= 9; ow++ {
		// 1x1 kernels at stride 1 and 2.
		seed(8, 1, 1, 1, ow, ow, 3, 5)
		seed(8, 1, 1, 2, ow, ow, 5, 3)
	}
	seed(3, 7, 7, 2, 16, 9, 1, 1) // the 7x7 stride-2 stem row
	f.Fuzz(func(t *testing.T, ic, kh, kw, stride, ow, rowPad, chanPad, base, dot, outC, inC uint8, f4 bool, data []byte) {
		// In-range values decode to themselves; the rest wrap into range.
		c, h, w, s := 1+int((ic-1)%8), 1+int((kh-1)%7), 1+int((kw-1)%7), 1+int((stride-1)%3)
		n := 1 + int((ow-1)%16)
		rowStride := w + (n-1)*s + int(rowPad%4)
		chanStride := rowStride*h + int(chanPad%8)
		inBase := int(base % 4)
		ops := &fuzzOperands{data: data}
		in := ops.ints(inBase + c*chanStride)
		wt := ops.ints(c * h * w)
		bias := int64(ops.next())
		sc, bl := scalar{}, blocked{}
		want, got := make([]int64, n), make([]int64, n)
		sc.ConvRow(want, in, wt, bias, inBase, s, c, h, w, chanStride, rowStride)
		bl.ConvRow(got, in, wt, bias, inBase, s, c, h, w, chanStride, rowStride)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("ConvRow ic=%d kh=%d kw=%d stride=%d ow=%d: acc[%d] scalar %d != blocked %d",
					c, h, w, s, n, i, want[i], got[i])
			}
		}

		a, b := ops.ints(int(dot%40)), ops.ints(int(dot%40))
		if want, got := sc.Dot(a, b, bias), bl.Dot(a, b, bias); want != got {
			t.Fatalf("Dot len %d: scalar %d != blocked %d", len(a), want, got)
		}

		t2, oc, icH := 16, 1+int((outC-1)%16), 1+int((inC-1)%16)
		if f4 {
			t2 = 36
		}
		vt := make([]int64, t2*icH)
		for i := range vt {
			vt[i] = int64(ops.next())
		}
		ut := ops.ints(t2 * oc * icH)
		wantM, gotM := make([]int64, oc*t2), make([]int64, oc*t2)
		sc.Hadamard(wantM, vt, ut, t2, oc, icH)
		bl.Hadamard(gotM, vt, ut, t2, oc, icH)
		for i := range wantM {
			if wantM[i] != gotM[i] {
				t.Fatalf("Hadamard t2=%d outC=%d inC=%d: msum[%d] scalar %d != blocked %d",
					t2, oc, icH, i, wantM[i], gotM[i])
			}
		}
	})
}
