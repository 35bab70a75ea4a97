package kernel

import (
	"fmt"
	"math/rand"
	"testing"
)

// rowShape is one direct-conv row: kernel size, stride, input channels and
// output row width.
type rowShape struct{ k, stride, ic, ow int }

// convRowShapes are the direct-conv row shapes of vgg19 and resnet50 at the
// default scale (width 0.125, 32x32 inputs).
var convRowShapes = func() []rowShape {
	shapes := []rowShape{
		// 3x3 stride-1 rows on 32x32 down to 1x1 planes.
		{3, 1, 8, 32}, {3, 1, 16, 16}, {3, 1, 32, 8}, {3, 1, 64, 4}, {3, 1, 32, 2}, {3, 1, 64, 2}, {3, 1, 64, 1},
		// resnet50's 7x7 stride-2 stem.
		{7, 2, 3, 16},
	}
	// 1x1 rows at stride 1 and 2 over every block remainder, with 128/ow
	// input channels so each call does about 128 MACs.
	for _, s := range []int{1, 2} {
		for ow := 1; ow <= 8; ow++ {
			shapes = append(shapes, rowShape{1, s, 128 / ow, ow})
		}
	}
	return shapes
}()

// BenchmarkConvRowShapes times one ConvRow call per shape and backend and
// reports the multiply-accumulate rate.
func BenchmarkConvRowShapes(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	for _, sh := range convRowShapes {
		rowStride := sh.k + (sh.ow-1)*sh.stride
		chanStride := rowStride * sh.k
		in := randInts(r, chanStride*sh.ic)
		w := randInts(r, sh.ic*sh.k*sh.k)
		acc := make([]int64, sh.ow)
		macs := float64(sh.ow * sh.ic * sh.k * sh.k)
		for _, name := range []string{"scalar", "blocked"} {
			bk, err := Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%dx%ds%d/ic%d/ow%d/%s", sh.k, sh.k, sh.stride, sh.ic, sh.ow, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bk.ConvRow(acc, in, w, 1, 0, sh.stride, sh.ic, sh.k, sh.k, chanStride, rowStride)
				}
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
