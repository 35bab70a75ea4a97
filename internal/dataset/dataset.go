// Package dataset generates the deterministic synthetic evaluation sets that
// stand in for CIFAR-10/100 and ImageNet. Fault-injection outcomes depend on
// activation magnitude statistics rather than label semantics (accuracy is
// measured as agreement with the fault-free golden prediction, see
// DESIGN.md), so the sets are built from smooth per-class prototype fields
// plus noise, giving realistic spatially-correlated inputs in a known range.
package dataset

import (
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Set is a quantized evaluation set.
type Set struct {
	Name    string
	Classes int
	Labels  []int // prototype class of each image (informational)
	Images  *tensor.QTensor
}

// N returns the number of images.
func (s *Set) N() int { return s.Images.Shape.N }

// Batch returns images [lo, hi) as an independent quantized tensor.
func (s *Set) Batch(lo, hi int) *tensor.QTensor { return s.Images.Images(lo, hi).Clone() }

// Synthetic builds a deterministic n-image set with the given geometry:
// each image is a smooth class prototype plus i.i.d. noise, normalized to
// roughly unit standard deviation (matching the calibration assumptions of
// the quantized model zoo).
func Synthetic(name string, classes, n, c, h, w int, seed uint64, f fixed.Format) *Set {
	if classes < 2 || n < 1 {
		panic("dataset: need at least 2 classes and 1 image")
	}
	root := rng.New(seed)
	protos := make([]*tensor.Tensor, classes)
	for k := range protos {
		protos[k] = smoothField(root.Split(uint64(k)), c, h, w)
	}
	imgs := tensor.New(tensor.Shape{N: n, C: c, H: h, W: w})
	labels := make([]int, n)
	noise := root.SplitString("noise")
	per := c * h * w
	for i := 0; i < n; i++ {
		k := i % classes
		labels[i] = k
		base := i * per
		p := protos[k]
		for j := 0; j < per; j++ {
			imgs.Data[base+j] = 0.7*p.Data[j] + 0.5*noise.NormFloat64()
		}
	}
	return &Set{Name: name, Classes: classes, Labels: labels, Images: tensor.Quantize(imgs, f)}
}

// smoothField returns a {1,c,h,w} tensor of spatially-correlated noise built
// by box-blurring white noise, mimicking natural-image local correlation.
func smoothField(r *rng.Stream, c, h, w int) *tensor.Tensor {
	t := tensor.New(tensor.Shape{N: 1, C: c, H: h, W: w}).Random(r, 1)
	out := tensor.New(t.Shape)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var sum float64
				var cnt int
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= h || xx < 0 || xx >= w {
							continue
						}
						sum += t.At(0, ci, yy, xx)
						cnt++
					}
				}
				out.Set(0, ci, y, x, sum/float64(cnt)*1.8)
			}
		}
	}
	return out
}

// ForModel returns the conventional stand-in set for one of the paper's
// dataset names ("cifar10", "cifar100", "imagenet") at the given image size.
func ForModel(dsName string, n, size int, seed uint64, f fixed.Format) *Set {
	classes := map[string]int{"cifar10": 10, "cifar100": 100, "imagenet": 1000}[dsName]
	if classes == 0 {
		classes = 10
	}
	// Prototype count is capped: golden-agreement accuracy does not need one
	// prototype per class, only input diversity.
	protoClasses := classes
	if protoClasses > 32 {
		protoClasses = 32
	}
	return Synthetic(dsName, protoClasses, n, 3, size, size, seed, f)
}
