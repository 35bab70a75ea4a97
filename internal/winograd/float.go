package winograd

import (
	"fmt"

	"repro/internal/tensor"
)

// TransformFilter computes the 2D filter transform U = G g Gᵀ for one RxR
// kernel, returning a TxT matrix. Used by the float reference path.
func TransformFilter(t *Tile, g []float64) []float64 {
	u := make([]float64, t.T()*t.T())
	transformFilter(t, g, make([]float64, t.T()*t.R), u)
	return u
}

// transformFilter writes U = G g Gᵀ into u (TxT), using tmp (TxR) for G·g.
// NewParams reuses one buffer pair for every kernel of a layer.
func transformFilter(t *Tile, g, tmp, u []float64) {
	T := t.T()
	if len(g) != t.R*t.R {
		panic(fmt.Sprintf("winograd: kernel size %d != %dx%d", len(g), t.R, t.R))
	}
	for r := 0; r < T; r++ {
		for c := 0; c < t.R; c++ {
			var acc float64
			for k := 0; k < t.R; k++ {
				acc += t.G[r][k] * g[k*t.R+c]
			}
			tmp[r*t.R+c] = acc
		}
	}
	for r := 0; r < T; r++ {
		for c := 0; c < T; c++ {
			var acc float64
			for k := 0; k < t.R; k++ {
				acc += tmp[r*t.R+k] * t.G[c][k]
			}
			u[r*T+c] = acc
		}
	}
}

// ForwardFloat computes a stride-1 winograd convolution in float64, the
// mathematical reference the quantized engine is validated against. Weight
// shape is {outC, inC, R, R}; output spatial size is H+2p-R+1.
func ForwardFloat(in, w *tensor.Tensor, bias []float64, pad int, t *Tile) *tensor.Tensor {
	if w.Shape.H != t.R || w.Shape.W != t.R {
		panic(fmt.Sprintf("winograd: weight %dx%d does not match tile %s", w.Shape.H, w.Shape.W, t.Name))
	}
	if in.Shape.C != w.Shape.C {
		panic("winograd: channel mismatch")
	}
	T, m := t.T(), t.M
	oh := in.Shape.H + 2*pad - t.R + 1
	ow := in.Shape.W + 2*pad - t.R + 1
	tilesY := (oh + m - 1) / m
	tilesX := (ow + m - 1) / m

	// Extended padding so every tile reads a full TxT window.
	needH := (tilesY-1)*m + T
	needW := (tilesX-1)*m + T
	ext := tensor.New(tensor.Shape{N: in.Shape.N, C: in.Shape.C, H: needH, W: needW})
	for n := 0; n < in.Shape.N; n++ {
		for c := 0; c < in.Shape.C; c++ {
			for y := 0; y < in.Shape.H; y++ {
				for x := 0; x < in.Shape.W; x++ {
					ext.Set(n, c, y+pad, x+pad, in.At(n, c, y, x))
				}
			}
		}
	}

	// Offline filter transforms.
	outC, inC := w.Shape.N, w.Shape.C
	u := make([][]float64, outC*inC)
	for o := 0; o < outC; o++ {
		for c := 0; c < inC; c++ {
			g := make([]float64, t.R*t.R)
			for ky := 0; ky < t.R; ky++ {
				for kx := 0; kx < t.R; kx++ {
					g[ky*t.R+kx] = w.At(o, c, ky, kx)
				}
			}
			u[o*inC+c] = TransformFilter(t, g)
		}
	}

	out := tensor.New(tensor.Shape{N: in.Shape.N, C: outC, H: oh, W: ow})
	btF, atF := toFloat(t.BT), toFloat(t.AT)
	d := make([]float64, T*T)
	v := make([]float64, inC*T*T)
	tmp := make([]float64, T*T)
	msum := make([]float64, T*T)
	y := make([]float64, m*m)

	for n := 0; n < in.Shape.N; n++ {
		for ty := 0; ty < tilesY; ty++ {
			for tx := 0; tx < tilesX; tx++ {
				for c := 0; c < inC; c++ {
					for i := 0; i < T; i++ {
						for j := 0; j < T; j++ {
							d[i*T+j] = ext.At(n, c, ty*m+i, tx*m+j)
						}
					}
					matTransformF(btF, T, T, d, v[c*T*T:(c+1)*T*T], tmp)
				}
				for o := 0; o < outC; o++ {
					for i := range msum {
						msum[i] = 0
					}
					for c := 0; c < inC; c++ {
						uoc := u[o*inC+c]
						vc := v[c*T*T:]
						for i := 0; i < T*T; i++ {
							msum[i] += uoc[i] * vc[i]
						}
					}
					matTransformF(atF, m, T, msum, y, tmp)
					var b float64
					if bias != nil {
						b = bias[o]
					}
					for i := 0; i < m; i++ {
						oy := ty*m + i
						if oy >= oh {
							continue
						}
						for j := 0; j < m; j++ {
							ox := tx*m + j
							if ox >= ow {
								continue
							}
							out.Set(n, o, oy, ox, y[i*m+j]+b)
						}
					}
				}
			}
		}
	}
	return out
}

// matTransformF is the float twin of matTransform: out = mat·in·matᵀ with
// mat rows x T and in T x T.
func matTransformF(mat [][]float64, rows, t int, in, out, scratch []float64) {
	for r := 0; r < rows; r++ {
		for col := 0; col < t; col++ {
			var acc float64
			for k := 0; k < t; k++ {
				if c := mat[r][k]; c != 0 {
					acc += c * in[k*t+col]
				}
			}
			scratch[r*t+col] = acc
		}
	}
	for r := 0; r < rows; r++ {
		for c2 := 0; c2 < rows; c2++ {
			var acc float64
			for k := 0; k < t; k++ {
				if c := mat[c2][k]; c != 0 {
					acc += c * scratch[r*t+k]
				}
			}
			out[r*rows+c2] = acc
		}
	}
}

func toFloat(m [][]int64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = make([]float64, len(row))
		for j, v := range row {
			out[i][j] = float64(v)
		}
	}
	return out
}
