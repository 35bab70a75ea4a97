// Package models contains the benchmark network zoo of the paper —
// DenseNet169, ResNet50, VGG19 and GoogLeNet — expressed as an
// architecture IR that can be (a) instantiated into a runnable quantized
// nn.Network with deterministic weights at any width/resolution scale, and
// (b) analysed geometry-only to obtain the *full-size* operation census that
// drives fault intensities, so scaled-down experiment models keep the
// paper's bit-error-rate axis (see DESIGN.md, substitutions).
package models

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// OpDef is one node of an architecture, mirroring nn's op set.
type OpDef struct {
	Name   string
	Kind   string // conv | fc | relu | maxpool | avgpool | gap | add | concat | flatten
	Inputs []int  // indices into Arch.Ops; -1 is the network input
	// conv/fc geometry (fc uses K=1):
	OutC, K, Stride, Pad int
	NoBias               bool
}

// Arch is a scale-agnostic network description.
type Arch struct {
	Name    string
	Dataset string
	Classes int
	In      tensor.Shape // {1, C, H, W}
	Ops     []OpDef
	Output  int
}

// Options controls model scaling. The zero value means full paper scale.
type Options struct {
	// WidthMult scales every channel count (0 means 1.0 = full width).
	WidthMult float64
	// InputSize overrides the spatial input resolution (0 = dataset native:
	// 32 for CIFAR, 224 for ImageNet).
	InputSize int
}

// Quick is the default experiment scale: quarter width, 32x32 inputs. The
// layer structure, relative per-layer op counts and mul/add ratios of the
// full models are preserved; only absolute cost shrinks.
var Quick = Options{WidthMult: 0.25, InputSize: 32}

// Tiny is the scale used by unit tests and -short benchmarks.
var Tiny = Options{WidthMult: 0.125, InputSize: 16}

func (o Options) width() float64 {
	if o.WidthMult <= 0 {
		return 1
	}
	return o.WidthMult
}

// scaleC scales a channel count, keeping at least 2 channels.
func (o Options) scaleC(c int) int {
	s := int(math.Round(float64(c) * o.width()))
	if s < 2 {
		return 2
	}
	return s
}

func (o Options) inputSize(native int) int {
	if o.InputSize > 0 {
		return o.InputSize
	}
	return native
}

// archBuilder accumulates OpDefs with shape tracking.
type archBuilder struct {
	a      *Arch
	shapes []tensor.Shape
}

func newArchBuilder(name, dataset string, classes, c, h, w int) *archBuilder {
	return &archBuilder{a: &Arch{
		Name: name, Dataset: dataset, Classes: classes,
		In: tensor.Shape{N: 1, C: c, H: h, W: w},
	}}
}

func (b *archBuilder) shapeOf(i int) tensor.Shape {
	if i == nn.InputNode {
		return b.a.In
	}
	return b.shapes[i]
}

func (b *archBuilder) push(d OpDef) int {
	ins := make([]tensor.Shape, len(d.Inputs))
	for i, idx := range d.Inputs {
		ins[i] = b.shapeOf(idx)
	}
	b.a.Ops = append(b.a.Ops, d)
	b.shapes = append(b.shapes, outShapeOf(d, ins))
	return len(b.a.Ops) - 1
}

func (b *archBuilder) conv(name string, from, outC, k, s, p int) int {
	return b.push(OpDef{Name: name, Kind: "conv", Inputs: []int{from}, OutC: outC, K: k, Stride: s, Pad: p})
}

func (b *archBuilder) convNB(name string, from, outC, k, s, p int) int {
	return b.push(OpDef{Name: name, Kind: "conv", Inputs: []int{from}, OutC: outC, K: k, Stride: s, Pad: p, NoBias: true})
}

func (b *archBuilder) relu(name string, from int) int {
	return b.push(OpDef{Name: name, Kind: "relu", Inputs: []int{from}})
}

func (b *archBuilder) convReLU(name string, from, outC, k, s, p int) int {
	return b.relu(name+".relu", b.conv(name, from, outC, k, s, p))
}

func (b *archBuilder) maxpool(name string, from, k, s, p int) int {
	return b.push(OpDef{Name: name, Kind: "maxpool", Inputs: []int{from}, K: k, Stride: s, Pad: p})
}

func (b *archBuilder) avgpool(name string, from, k, s, p int) int {
	return b.push(OpDef{Name: name, Kind: "avgpool", Inputs: []int{from}, K: k, Stride: s, Pad: p})
}

func (b *archBuilder) gap(name string, from int) int {
	return b.push(OpDef{Name: name, Kind: "gap", Inputs: []int{from}})
}

func (b *archBuilder) add(name string, x, y int) int {
	return b.push(OpDef{Name: name, Kind: "add", Inputs: []int{x, y}})
}

func (b *archBuilder) concat(name string, xs ...int) int {
	return b.push(OpDef{Name: name, Kind: "concat", Inputs: xs})
}

func (b *archBuilder) flatten(name string, from int) int {
	return b.push(OpDef{Name: name, Kind: "flatten", Inputs: []int{from}})
}

func (b *archBuilder) fc(name string, from, out int) int {
	return b.push(OpDef{Name: name, Kind: "fc", Inputs: []int{from}, OutC: out, K: 1})
}

func (b *archBuilder) finish(output int) *Arch {
	b.a.Output = output
	return b.a
}

// outShapeOf propagates shapes for one OpDef.
func outShapeOf(d OpDef, ins []tensor.Shape) tensor.Shape {
	in := ins[0]
	switch d.Kind {
	case "fc":
		return tensor.Shape{N: in.N, C: d.OutC, H: 1, W: 1}
	case "conv":
		oh := (in.H+2*d.Pad-d.K)/d.Stride + 1
		ow := (in.W+2*d.Pad-d.K)/d.Stride + 1
		return tensor.Shape{N: in.N, C: d.OutC, H: oh, W: ow}
	case "relu":
		return in
	case "maxpool":
		return nn.MaxPool{K: d.K, Stride: d.Stride, Pad: d.Pad}.OutShape(ins)
	case "avgpool":
		return nn.AvgPool{K: d.K, Stride: d.Stride, Pad: d.Pad}.OutShape(ins)
	case "gap":
		return nn.GlobalAvgPool{}.OutShape(ins)
	case "add":
		return nn.Add{}.OutShape(ins)
	case "concat":
		return nn.Concat{}.OutShape(ins)
	case "flatten":
		return nn.Flatten{}.OutShape(ins)
	default:
		panic(fmt.Sprintf("models: unknown op kind %q", d.Kind))
	}
}

// Build instantiates the architecture into a runnable network with
// deterministic (seed, layer-name)-derived weights. One walk places every
// node and builds the weightless ops; then the conv/FC layers draw and
// transform their weights on up to workers goroutines (par.Do; 0 means
// GOMAXPROCS, and 1 builds them in order on the calling goroutine), the
// layers with the most weights first, so the longest draws start before
// the short ones. A layer's weights are a pure function of (seed, name),
// and rng's Split never advances its parent, so no schedule can change a
// weight.
func Build(a *Arch, cfg nn.Config, workers int) *nn.Network {
	root := rng.New(cfg.Seed)
	net := &nn.Network{Name: a.Name, Kind: cfg.Kind, InShape: a.In, Output: a.Output}
	shapes := make([]tensor.Shape, len(a.Ops))
	tile := cfg.Tile
	if tile == nil {
		tile = winograd.F2
	}
	type layer struct{ node, inC, weights int }
	var layers []layer
	for i, d := range a.Ops {
		ins := nodeInputShapes(a, i, shapes)
		var op nn.Op
		switch d.Kind {
		case "conv", "fc":
			layers = append(layers, layer{node: i, inC: ins[0].C, weights: d.OutC * ins[0].C * d.K * d.K})
		case "relu":
			op = nn.ReLU{}
		case "maxpool":
			op = nn.MaxPool{K: d.K, Stride: d.Stride, Pad: d.Pad}
		case "avgpool":
			op = nn.AvgPool{K: d.K, Stride: d.Stride, Pad: d.Pad}
		case "gap":
			op = nn.GlobalAvgPool{}
		case "add":
			op = nn.Add{}
		case "concat":
			op = nn.Concat{}
		case "flatten":
			op = nn.Flatten{}
		default:
			panic(fmt.Sprintf("models: unknown op kind %q", d.Kind))
		}
		net.Nodes = append(net.Nodes, nn.Node{Name: d.Name, Op: op, Inputs: d.Inputs})
		shapes[i] = outShapeOf(d, ins)
	}
	slices.SortStableFunc(layers, func(x, y layer) int { return y.weights - x.weights })
	par.Do(workers, len(layers), func(k int) {
		l := layers[k]
		d := a.Ops[l.node]
		w, bias := nn.HeWeights(root, d.Name, d.OutC, l.inC, d.K, d.K)
		if d.Kind == "fc" {
			net.Nodes[l.node].Op = nn.NewFC(w, bias, cfg.WFmt, cfg.ActFmt)
			return
		}
		if d.NoBias {
			bias = nil
		}
		net.Nodes[l.node].Op = nn.NewConv(w, bias, d.Stride, d.Pad, cfg.Kind, tile, cfg.WFmt, cfg.ActFmt)
	})
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

// ConvNodes returns the indices of the architecture's conv and fc ops, in
// network order: the nodes Build makes convolutions (nn.Network.ConvNodes),
// and the layers the paper's layer-wise analysis and TMR protection operate
// on, known without drawing a weight.
func ConvNodes(a *Arch) []int {
	var out []int
	for i, d := range a.Ops {
		if d.Kind == "conv" || d.Kind == "fc" {
			out = append(out, i)
		}
	}
	return out
}

// Census computes the per-node op census of the architecture for the given
// engine kind from geometry alone — no weights are materialized, so it is
// cheap even at full ImageNet scale.
func Census(a *Arch, kind nn.EngineKind, tile *winograd.Tile) []fault.Census {
	if tile == nil {
		tile = winograd.F2
	}
	out := make([]fault.Census, len(a.Ops))
	shapes := make([]tensor.Shape, len(a.Ops))
	for i, d := range a.Ops {
		ins := nodeInputShapes(a, i, shapes)
		switch d.Kind {
		case "conv":
			if kind == nn.Winograd && d.K >= 2 {
				out[i] = winograd.CensusFor(ins[0], d.OutC, d.K, d.K, d.Stride, d.Pad, !d.NoBias, tile)
			} else {
				out[i] = conv.CensusFor(ins[0], d.OutC, d.K, d.K, d.Stride, d.Pad, !d.NoBias)
			}
		case "fc":
			out[i] = conv.CensusFor(ins[0], d.OutC, 1, 1, 1, 0, true)
		case "maxpool":
			out[i] = nn.MaxPool{K: d.K, Stride: d.Stride, Pad: d.Pad}.Census(ins)
		case "avgpool":
			out[i] = nn.AvgPool{K: d.K, Stride: d.Stride, Pad: d.Pad}.Census(ins)
		case "gap":
			out[i] = nn.GlobalAvgPool{}.Census(ins)
		case "add":
			out[i] = nn.Add{}.Census(ins)
		}
		shapes[i] = outShapeOf(d, ins)
	}
	return out
}

// ValidateGeometry checks that every node of the architecture produces a
// non-empty output shape, so undersized inputs surface as a descriptive
// error at construction time instead of a panic deep inside the convolution
// engines ("input too small") at forward time. It propagates shapes exactly
// as Build does; the first collapsing node is reported by name.
func ValidateGeometry(a *Arch) error {
	if !a.In.Valid() {
		return fmt.Errorf("models: %s input shape %v is empty", a.Name, a.In)
	}
	shapes := make([]tensor.Shape, len(a.Ops))
	for i, d := range a.Ops {
		ins := nodeInputShapes(a, i, shapes)
		out := outShapeOf(d, ins)
		if !out.Valid() {
			return fmt.Errorf("models: %s node %q (%s %dx%d s%d p%d) collapses to %v for input %v: input resolution too small",
				a.Name, d.Name, d.Kind, d.K, d.K, d.Stride, d.Pad, out, ins[0])
		}
		shapes[i] = out
	}
	return nil
}

// nodeInputShapes resolves node i's input shapes from the already-propagated
// node output shapes, shared by every geometry walk over an Arch.
func nodeInputShapes(a *Arch, i int, shapes []tensor.Shape) []tensor.Shape {
	d := a.Ops[i]
	ins := make([]tensor.Shape, len(d.Inputs))
	for j, idx := range d.Inputs {
		if idx == nn.InputNode {
			ins[j] = a.In
		} else {
			ins[j] = shapes[idx]
		}
	}
	return ins
}

// Shapes returns every node's output shape (batch 1) from geometry alone,
// used to derive full-scale neuron counts for neuron-level injection.
func Shapes(a *Arch) []tensor.Shape {
	shapes := make([]tensor.Shape, len(a.Ops))
	for i, d := range a.Ops {
		shapes[i] = outShapeOf(d, nodeInputShapes(a, i, shapes))
	}
	return shapes
}

// TotalCensus sums Census over all nodes.
func TotalCensus(a *Arch, kind nn.EngineKind, tile *winograd.Tile) fault.Census {
	var total fault.Census
	for _, c := range Census(a, kind, tile) {
		total = total.AddCensus(c)
	}
	return total
}

// IntensityFor maps the full-scale architecture's per-node op census onto
// the node list of a scaled-down architecture, aligning by layer name (the
// two differ only in pooling nodes that vanish at tiny resolutions). Nodes
// without a full-scale counterpart keep their own census. This is what pins
// the scaled experiments to the paper's BER axis.
func IntensityFor(scaled, full *Arch, kind nn.EngineKind, tile *winograd.Tile) []fault.Census {
	fullCensus := Census(full, kind, tile)
	byName := make(map[string]fault.Census, len(full.Ops))
	for i, d := range full.Ops {
		byName[d.Name] = fullCensus[i]
	}
	scaledCensus := Census(scaled, kind, tile)
	out := make([]fault.Census, len(scaled.Ops))
	for i, d := range scaled.Ops {
		if c, ok := byName[d.Name]; ok {
			out[i] = c
		} else {
			out[i] = scaledCensus[i]
		}
	}
	return out
}

// NeuronIntensityFor maps full-scale neuron-level fault opportunities onto a
// scaled architecture's node list, aligned by layer name. The neuron-level
// BER is interpreted per value-use (one use per executed operation), which
// makes the neuron-level and operation-level platforms commensurable on one
// BER axis as in the paper's Fig. 1; the counts come from the standard
// convolution census for *both* engines because neuron-level injection is,
// by construction, oblivious to how the neurons were computed.
func NeuronIntensityFor(scaled, full *Arch) []int64 {
	fullCensus := Census(full, nn.Direct, nil)
	byName := make(map[string]int64, len(full.Ops))
	for i, d := range full.Ops {
		byName[d.Name] = fullCensus[i].Total()
	}
	scaledCensus := Census(scaled, nn.Direct, nil)
	out := make([]int64, len(scaled.Ops))
	for i, d := range scaled.Ops {
		if e, ok := byName[d.Name]; ok {
			out[i] = e
		} else {
			out[i] = scaledCensus[i].Total()
		}
	}
	return out
}
