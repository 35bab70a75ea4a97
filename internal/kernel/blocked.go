package kernel

func init() { Register(blocked{}) }

// blocked is the hand-blocked int32 backend and the process default: 4-wide
// output-column MAC blocking for direct convolution (each loaded weight feeds
// four accumulators), with specializations for stride-1 3-wide kernels and
// for 1x1 kernels, and output-channel-paired, 2-wide channel-unrolled
// Hadamard accumulation (each loaded activation feeds two output channels,
// with two independent partial sums per channel for ILP).
//
// Bit-exactness is by construction, not by tolerance: every accumulator is
// an int64 sum over exactly the same set of int64 products the scalar
// reference sums, merely reassociated — and int64 addition is associative
// and commutative (wrapping two's-complement ring), so the final sums are
// bit-identical, for every input. The transforms are shared with scalar
// outright: they are straight-line adds with no blocking freedom.
type blocked struct{}

func (blocked) Name() string { return "blocked" }

func (blocked) ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	switch {
	case kh == 1 && kw == 1:
		conv1x1Row(acc, in, w[:ic], bias, inBase, stride, chanStride)
	case stride == 1 && kw == 3:
		conv3Row(acc, in, w, bias, inBase, ic, kh, chanStride, rowStride)
	default:
		convRowBlocked(acc, in, w, bias, inBase, stride, ic, kh, kw, chanStride, rowStride)
	}
}

// conv3Row is ConvRow for stride-1 3-wide kernels (the dominant conv shape).
// Adjacent windows overlap, so a block of four columns shares its input
// loads: each (channel, kernel row) costs 6 loads instead of 12. The 1–3
// remainder columns share theirs the same way (3, 4 or 5 loads). Every
// accumulator still sums exactly its own scalar product set.
func conv3Row(acc []int64, in, w []int32, bias int64, inBase, ic, kh, chanStride, rowStride int) {
	ow := len(acc)
	ox := 0
	for ; ox+3 < ow; ox += 4 {
		base := inBase + ox
		s0, s1, s2, s3 := bias, bias, bias, bias
		wi := 0
		for c := 0; c < ic; c++ {
			inRow := base + c*chanStride
			for ky := 0; ky < kh; ky++ {
				row := in[inRow : inRow+6 : inRow+6]
				w0, w1, w2 := int64(w[wi]), int64(w[wi+1]), int64(w[wi+2])
				d0, d1, d2 := int64(row[0]), int64(row[1]), int64(row[2])
				d3, d4, d5 := int64(row[3]), int64(row[4]), int64(row[5])
				s0 += d0*w0 + d1*w1 + d2*w2
				s1 += d1*w0 + d2*w1 + d3*w2
				s2 += d2*w0 + d3*w1 + d4*w2
				s3 += d3*w0 + d4*w1 + d5*w2
				inRow += rowStride
				wi += 3
			}
		}
		acc[ox], acc[ox+1], acc[ox+2], acc[ox+3] = s0, s1, s2, s3
	}
	if ox == ow {
		return
	}
	base := inBase + ox
	s0, s1, s2 := bias, bias, bias
	wi := 0
	switch ow - ox {
	case 3:
		for c := 0; c < ic; c++ {
			inRow := base + c*chanStride
			for ky := 0; ky < kh; ky++ {
				row := in[inRow : inRow+5 : inRow+5]
				w0, w1, w2 := int64(w[wi]), int64(w[wi+1]), int64(w[wi+2])
				d0, d1, d2, d3, d4 := int64(row[0]), int64(row[1]), int64(row[2]), int64(row[3]), int64(row[4])
				s0 += d0*w0 + d1*w1 + d2*w2
				s1 += d1*w0 + d2*w1 + d3*w2
				s2 += d2*w0 + d3*w1 + d4*w2
				inRow += rowStride
				wi += 3
			}
		}
		acc[ox], acc[ox+1], acc[ox+2] = s0, s1, s2
	case 2:
		for c := 0; c < ic; c++ {
			inRow := base + c*chanStride
			for ky := 0; ky < kh; ky++ {
				row := in[inRow : inRow+4 : inRow+4]
				w0, w1, w2 := int64(w[wi]), int64(w[wi+1]), int64(w[wi+2])
				d0, d1, d2, d3 := int64(row[0]), int64(row[1]), int64(row[2]), int64(row[3])
				s0 += d0*w0 + d1*w1 + d2*w2
				s1 += d1*w0 + d2*w1 + d3*w2
				inRow += rowStride
				wi += 3
			}
		}
		acc[ox], acc[ox+1] = s0, s1
	default:
		for c := 0; c < ic; c++ {
			inRow := base + c*chanStride
			for ky := 0; ky < kh; ky++ {
				row := in[inRow : inRow+3 : inRow+3]
				s0 += int64(row[0])*int64(w[wi]) + int64(row[1])*int64(w[wi+1]) + int64(row[2])*int64(w[wi+2])
				inRow += rowStride
				wi += 3
			}
		}
		acc[ox] = s0
	}
}

// conv1x1Row is ConvRow for 1x1 kernels: one weight per input channel, so
// the kernel-row and kernel-column loops vanish. Four columns share each
// weight load; the remainder columns run a plain channel loop.
func conv1x1Row(acc []int64, in, w []int32, bias int64, inBase, stride, chanStride int) {
	ow := len(acc)
	ox := 0
	for ; ox+3 < ow; ox += 4 {
		p := inBase + ox*stride
		s0, s1, s2, s3 := bias, bias, bias, bias
		for _, wv := range w {
			v := int64(wv)
			s0 += int64(in[p]) * v
			s1 += int64(in[p+stride]) * v
			s2 += int64(in[p+2*stride]) * v
			s3 += int64(in[p+3*stride]) * v
			p += chanStride
		}
		acc[ox], acc[ox+1], acc[ox+2], acc[ox+3] = s0, s1, s2, s3
	}
	for ; ox < ow; ox++ {
		p := inBase + ox*stride
		s := bias
		for _, wv := range w {
			s += int64(in[p]) * int64(wv)
			p += chanStride
		}
		acc[ox] = s
	}
}

// convRowBlocked is ConvRow for every other geometry (among the models, the
// 7x7 stride-2 stems and googlenet's 5x5 layers): 4-wide output-column
// blocks, each loaded weight feeding four accumulators, with the scalar
// chain for the remainder columns.
func convRowBlocked(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	ow := len(acc)
	ox := 0
	for ; ox+3 < ow; ox += 4 {
		base := inBase + ox*stride
		s0, s1, s2, s3 := bias, bias, bias, bias
		wi := 0
		for c := 0; c < ic; c++ {
			inRow := base + c*chanStride
			for ky := 0; ky < kh; ky++ {
				wRow := w[wi : wi+kw : wi+kw]
				for kx := 0; kx < kw; kx++ {
					wv := int64(wRow[kx])
					p := inRow + kx
					s0 += int64(in[p]) * wv
					s1 += int64(in[p+stride]) * wv
					s2 += int64(in[p+2*stride]) * wv
					s3 += int64(in[p+3*stride]) * wv
				}
				inRow += rowStride
				wi += kw
			}
		}
		acc[ox], acc[ox+1], acc[ox+2], acc[ox+3] = s0, s1, s2, s3
	}
	for ; ox < ow; ox++ {
		acc[ox] = convOne(in, w, bias, inBase+ox*stride, ic, kh, kw, chanStride, rowStride)
	}
}

func (blocked) Dot(a, b []int32, bias int64) int64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += int64(a[i]) * int64(b[i])
		s1 += int64(a[i+1]) * int64(b[i+1])
		s2 += int64(a[i+2]) * int64(b[i+2])
		s3 += int64(a[i+3]) * int64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int64(a[i]) * int64(b[i])
	}
	return bias + (s0 + s1) + (s2 + s3)
}

func (blocked) Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int) {
	for i := 0; i < t2; i++ {
		vRow := vt[i*inC : (i+1)*inC]
		uPos := ut[i*outC*inC : (i+1)*outC*inC]
		o := 0
		for ; o+1 < outC; o += 2 {
			u0 := uPos[o*inC : o*inC+inC]
			u1 := uPos[(o+1)*inC : (o+1)*inC+inC]
			u0 = u0[:len(vRow)]
			u1 = u1[:len(vRow)]
			var a0, b0, a1, b1 int64
			c := 0
			for ; c+1 < len(vRow); c += 2 {
				v0, v1 := vRow[c], vRow[c+1]
				a0 += int64(u0[c]) * v0
				b0 += int64(u0[c+1]) * v1
				a1 += int64(u1[c]) * v0
				b1 += int64(u1[c+1]) * v1
			}
			if c < len(vRow) {
				v0 := vRow[c]
				a0 += int64(u0[c]) * v0
				a1 += int64(u1[c]) * v0
			}
			msum[o*t2+i] = a0 + b0
			msum[(o+1)*t2+i] = a1 + b1
		}
		if o < outC {
			uRow := uPos[o*inC : o*inC+inC]
			uRow = uRow[:len(vRow)]
			var s int64
			for c, v := range vRow {
				s += int64(uRow[c]) * v
			}
			msum[o*t2+i] = s
		}
	}
}

func (blocked) InputRows(t Tile, src []int32, stride int, out []int64) {
	if t == F4 {
		f4InputRows(src, stride, out)
		return
	}
	f2InputRows(src, stride, out)
}

func (blocked) Output(t Tile, msum, y []int64) {
	if t == F4 {
		f4Output(msum, y)
		return
	}
	f2Output(msum, y)
}
