package kernel

func init() { Register(scalar{}) }

// scalar is the reference backend: the engines' original inner loops, moved
// here verbatim. Every other backend is validated bit-exactly against it.
type scalar struct{}

func (scalar) Name() string { return "scalar" }

func (scalar) ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	for ox := range acc {
		acc[ox] = convOne(in, w, bias, inBase+ox*stride, ic, kh, kw, chanStride, rowStride)
	}
}

// convOne is the scalar MAC chain of one output element, shared with the
// remainder columns of the blocked backend's generic path.
func convOne(in, w []int32, bias int64, base, ic, kh, kw, chanStride, rowStride int) int64 {
	acc := bias
	wi := 0
	for c := 0; c < ic; c++ {
		inRow := base + c*chanStride
		for ky := 0; ky < kh; ky++ {
			row := in[inRow : inRow+kw : inRow+kw]
			wRow := w[wi : wi+kw : wi+kw]
			for kx := 0; kx < kw; kx++ {
				acc += int64(row[kx]) * int64(wRow[kx])
			}
			inRow += rowStride
			wi += kw
		}
	}
	return acc
}

func (scalar) Dot(a, b []int32, bias int64) int64 {
	b = b[:len(a)]
	acc := bias
	for i, av := range a {
		acc += int64(av) * int64(b[i])
	}
	return acc
}

func (scalar) Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int) {
	// For each (position, out channel) both the weight row ut[i][o][:] and
	// the activation row vt[i][:] are contiguous; summation order is
	// irrelevant to the result (int64 ring), so the 4-wide unroll is
	// bit-identical to the plain loop.
	for i := 0; i < t2; i++ {
		vRow := vt[i*inC : (i+1)*inC]
		uPos := ut[i*outC*inC : (i+1)*outC*inC]
		for o := 0; o < outC; o++ {
			uRow := uPos[o*inC : o*inC+inC]
			uRow = uRow[:len(vRow)]
			var s int64
			c := 0
			for ; c+3 < len(vRow); c += 4 {
				s += int64(uRow[c])*vRow[c] +
					int64(uRow[c+1])*vRow[c+1] +
					int64(uRow[c+2])*vRow[c+2] +
					int64(uRow[c+3])*vRow[c+3]
			}
			for ; c < len(vRow); c++ {
				s += int64(uRow[c]) * vRow[c]
			}
			msum[o*t2+i] = s
		}
	}
}

func (scalar) InputRows(t Tile, src []int32, stride int, out []int64) {
	if t == F4 {
		f4InputRows(src, stride, out)
		return
	}
	f2InputRows(src, stride, out)
}

func (scalar) Output(t Tile, msum, y []int64) {
	if t == F4 {
		f4Output(msum, y)
		return
	}
	f2Output(msum, y)
}

// The straight-line shift-add transform networks below are specializations
// of the generic matTransform for the constant BT/AT matrices of F(2x2,3x3)
// and F(4x4,3x3) — exactly as hardware implements them. They are shared by
// every backend: the transforms are pure adds with tiny constant multiplies
// and leave no blocking freedom worth a per-backend variant.

// f2InputRows computes out = BT·d·BTᵀ for F(2x2,3x3), reading the 4x4 window
// straight from four activation rows of pitch stride: per 1D pass
// r0 = x0-x2, r1 = x1+x2, r2 = x2-x1, r3 = x1-x3.
func f2InputRows(src []int32, stride int, out []int64) {
	var s [16]int64
	r0 := src[0:4:4]
	r1 := src[stride : stride+4 : stride+4]
	r2 := src[2*stride : 2*stride+4 : 2*stride+4]
	r3 := src[3*stride : 3*stride+4 : 3*stride+4]
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := int64(r0[c]), int64(r1[c]), int64(r2[c]), int64(r3[c])
		s[c] = d0 - d2
		s[4+c] = d1 + d2
		s[8+c] = d2 - d1
		s[12+c] = d1 - d3
	}
	_ = out[15]
	for r := 0; r < 4; r++ {
		s0, s1, s2, s3 := s[r*4], s[r*4+1], s[r*4+2], s[r*4+3]
		out[r*4] = s0 - s2
		out[r*4+1] = s1 + s2
		out[r*4+2] = s2 - s1
		out[r*4+3] = s1 - s3
	}
}

// f2Output computes out = AT·msum·ATᵀ for F(2x2,3x3): per 1D pass
// r0 = x0+x1+x2, r1 = x1-x2-x3.
func f2Output(msum, out []int64) {
	var s [8]int64
	_ = msum[15]
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := msum[c], msum[4+c], msum[8+c], msum[12+c]
		s[c] = m0 + m1 + m2
		s[4+c] = m1 - m2 - m3
	}
	_ = out[3]
	for r := 0; r < 2; r++ {
		s0, s1, s2, s3 := s[r*4], s[r*4+1], s[r*4+2], s[r*4+3]
		out[r*2] = s0 + s1 + s2
		out[r*2+1] = s1 - s2 - s3
	}
}

// f4InputRows is the F(4x4,3x3) input transform reading the 6x6 window
// straight from six activation rows of pitch stride: per 1D pass
//
//	r0 = 4x0 - 5x2 + x4
//	r1 = -4x1 - 4x2 + x3 + x4
//	r2 = 4x1 - 4x2 - x3 + x4
//	r3 = -2x1 - x2 + 2x3 + x4
//	r4 = 2x1 - x2 - 2x3 + x4
//	r5 = 4x1 - 5x3 + x5
func f4InputRows(src []int32, stride int, out []int64) {
	var s [36]int64
	for c := 0; c < 6; c++ {
		d0 := int64(src[c])
		d1 := int64(src[stride+c])
		d2 := int64(src[2*stride+c])
		d3 := int64(src[3*stride+c])
		d4 := int64(src[4*stride+c])
		d5 := int64(src[5*stride+c])
		s[c] = 4*d0 - 5*d2 + d4
		s[6+c] = -4*d1 - 4*d2 + d3 + d4
		s[12+c] = 4*d1 - 4*d2 - d3 + d4
		s[18+c] = -2*d1 - d2 + 2*d3 + d4
		s[24+c] = 2*d1 - d2 - 2*d3 + d4
		s[30+c] = 4*d1 - 5*d3 + d5
	}
	_ = out[35]
	for r := 0; r < 6; r++ {
		s0, s1, s2, s3, s4, s5 := s[r*6], s[r*6+1], s[r*6+2], s[r*6+3], s[r*6+4], s[r*6+5]
		out[r*6] = 4*s0 - 5*s2 + s4
		out[r*6+1] = -4*s1 - 4*s2 + s3 + s4
		out[r*6+2] = 4*s1 - 4*s2 - s3 + s4
		out[r*6+3] = -2*s1 - s2 + 2*s3 + s4
		out[r*6+4] = 2*s1 - s2 - 2*s3 + s4
		out[r*6+5] = 4*s1 - 5*s3 + s5
	}
}

// f4Output is the F(4x4,3x3) output transform: per 1D pass
//
//	r0 = x0 + x1 + x2 + x3 + x4
//	r1 = x1 - x2 + 2x3 - 2x4
//	r2 = x1 + x2 + 4x3 + 4x4
//	r3 = x1 - x2 + 8x3 - 8x4 + x5
func f4Output(msum, out []int64) {
	var s [24]int64
	_ = msum[35]
	for c := 0; c < 6; c++ {
		m0, m1, m2, m3, m4, m5 := msum[c], msum[6+c], msum[12+c], msum[18+c], msum[24+c], msum[30+c]
		s[c] = m0 + m1 + m2 + m3 + m4
		s[6+c] = m1 - m2 + 2*m3 - 2*m4
		s[12+c] = m1 + m2 + 4*m3 + 4*m4
		s[18+c] = m1 - m2 + 8*m3 - 8*m4 + m5
	}
	_ = out[15]
	for r := 0; r < 4; r++ {
		s0, s1, s2, s3, s4, s5 := s[r*6], s[r*6+1], s[r*6+2], s[r*6+3], s[r*6+4], s[r*6+5]
		out[r*4] = s0 + s1 + s2 + s3 + s4
		out[r*4+1] = s1 - s2 + 2*s3 - 2*s4
		out[r*4+2] = s1 + s2 + 4*s3 + 4*s4
		out[r*4+3] = s1 - s2 + 8*s3 - 8*s4 + s5
	}
}
