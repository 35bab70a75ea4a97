// Package winograd implements winograd convolution over quantized tensors —
// the paper's subject — including the F(2x2,3x3) and F(4x4,3x3) tile
// algorithms, an exact operation census, bit-exact operation-level fault
// replay, and the DWM (decomposable winograd method, Huang et al. AAAI'20)
// decomposition that extends winograd to larger kernels and strides without
// accuracy penalty, as the paper relies on.
//
// The 2D algorithm is Y = Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A (paper Eq. 1). G carries
// the only fractional coefficients; since the filter transform happens once,
// offline, transformed weights are stored with extra fractional bits and the
// runtime arithmetic is pure integer: input transform and output transform
// are shift-and-add networks (counted as additions, as in the winograd
// literature), and the only multiplications are the T²-per-tile Hadamard
// products — the 2.25x (F2) / 4x (F4) multiplication reduction that the
// paper's fault-tolerance argument builds on.
package winograd

import "repro/internal/kernel"

// Tile describes one F(MxM, RxR) winograd algorithm via its constant
// transform matrices. BT and AT are integer matrices (their entries are
// implemented in hardware as shift-adds); G is fractional and used only for
// the offline filter transform.
type Tile struct {
	Name string
	M    int // output tile edge
	R    int // kernel edge (3 for both standard tiles)
	// FracExtra is the number of extra fractional bits given to transformed
	// weights so the G-transform's fractions survive quantization (2 bits
	// make F2 exact; 6 bits keep F4's 1/24-multiples to within 1/3 LSB).
	FracExtra int
	BT        [][]int64   // T x T input transform (transposed B)
	G         [][]float64 // T x R filter transform
	AT        [][]int64   // M x T output transform (transposed A)
}

// kernelTile maps the tile onto the compute-backend transform entry points
// (internal/kernel): straight-line specializations of matTransform for the
// constant BT/AT (shift-add networks, exactly as hardware implements them).
// int64 addition and multiplication form a commutative ring, so their
// reassociated sums are bit-identical to the generic loops'. Unmapped tiles
// fall back to matTransform. Faulty tiles use these kernels too; only the
// transforms that carry events replay on the generic census-ordered walk.
func (t *Tile) kernelTile() (kernel.Tile, bool) {
	switch t {
	case F2:
		return kernel.F2, true
	case F4:
		return kernel.F4, true
	}
	return 0, false
}

// T returns the input tile edge M + R - 1.
func (t *Tile) T() int { return t.M + t.R - 1 }

// rowAdds counts Σ_r (nnz(row r) - 1): the additions needed to apply the
// matrix to one length-T vector.
func rowAdds(m [][]int64) int {
	total := 0
	for _, row := range m {
		nnz := 0
		for _, v := range row {
			if v != 0 {
				nnz++
			}
		}
		if nnz > 1 {
			total += nnz - 1
		}
	}
	return total
}

// InputAdds returns the additions of one 2D input transform Bᵀ d B
// (both 1D passes over all rows/columns of the TxT tile).
func (t *Tile) InputAdds() int { return 2 * t.T() * rowAdds(t.BT) }

// OutputAdds returns the additions of one 2D output transform Aᵀ M A:
// T columns through Aᵀ, then M rows through Aᵀ again.
func (t *Tile) OutputAdds() int { return (t.T() + t.M) * rowAdds(t.AT) }

// MulsPerTileChannel returns the Hadamard multiplications per (tile, input
// channel, output channel): T².
func (t *Tile) MulsPerTileChannel() int { return t.T() * t.T() }

// F2 is F(2x2, 3x3): 16 multiplications produce a 2x2 output tile that
// direct convolution computes with 36, the 2.25x reduction quoted throughout
// the paper. Transform matrices follow Lavin & Gray (CVPR'16).
var F2 = &Tile{
	Name:      "F(2x2,3x3)",
	M:         2,
	R:         3,
	FracExtra: 2,
	BT: [][]int64{
		{1, 0, -1, 0},
		{0, 1, 1, 0},
		{0, -1, 1, 0},
		{0, 1, 0, -1},
	},
	G: [][]float64{
		{1, 0, 0},
		{0.5, 0.5, 0.5},
		{0.5, -0.5, 0.5},
		{0, 0, 1},
	},
	AT: [][]int64{
		{1, 1, 1, 0},
		{0, 1, -1, -1},
	},
}

// F4 is F(4x4, 3x3): 36 multiplications replace the 144 of direct
// convolution (4x reduction) at the price of larger transform constants,
// which amplify transform-domain errors — the tile-size ablation quantifies
// that trade-off.
var F4 = &Tile{
	Name:      "F(4x4,3x3)",
	M:         4,
	R:         3,
	FracExtra: 6,
	BT: [][]int64{
		{4, 0, -5, 0, 1, 0},
		{0, -4, -4, 1, 1, 0},
		{0, 4, -4, -1, 1, 0},
		{0, -2, -1, 2, 1, 0},
		{0, 2, -1, -2, 1, 0},
		{0, 4, 0, -5, 0, 1},
	},
	G: [][]float64{
		{1.0 / 4, 0, 0},
		{-1.0 / 6, -1.0 / 6, -1.0 / 6},
		{-1.0 / 6, 1.0 / 6, -1.0 / 6},
		{1.0 / 24, 1.0 / 12, 1.0 / 6},
		{1.0 / 24, -1.0 / 12, 1.0 / 6},
		{0, 0, 1},
	},
	AT: [][]int64{
		{1, 1, 1, 1, 1, 0},
		{0, 1, -1, 2, -2, 0},
		{0, 1, 1, 4, 4, 0},
		{0, 1, -1, 8, -8, 1},
	},
}

// Tiles lists the supported tile algorithms.
var Tiles = []*Tile{F2, F4}

// matTransform computes out = mat · in · matᵀ for a TxT input, where mat is
// rows x T; out is rows x rows. It is the shared fast path for both the
// input transform (mat = BT) and output transform (mat = AT).
func matTransform(mat [][]int64, rows, t int, in, out, scratch []int64) {
	// scratch holds the rows x T intermediate mat·in.
	for r := 0; r < rows; r++ {
		row := mat[r]
		for col := 0; col < t; col++ {
			var acc int64
			for k := 0; k < t; k++ {
				if c := row[k]; c != 0 {
					acc += c * in[k*t+col]
				}
			}
			scratch[r*t+col] = acc
		}
	}
	// out[r][c2] = Σ_k scratch[r][k] * mat[c2][k]
	for r := 0; r < rows; r++ {
		for c2 := 0; c2 < rows; c2++ {
			row := mat[c2]
			var acc int64
			for k := 0; k < t; k++ {
				if c := row[k]; c != 0 {
					acc += c * scratch[r*t+k]
				}
			}
			out[r*rows+c2] = acc
		}
	}
}
