package nn

import (
	"math/bits"
	"slices"

	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Delta execution (see DESIGN.md "Delta execution"): a fault round differs
// from the golden run only at the (node, image) pairs its fault events
// reach. Because every Op.Forward is a deterministic function of its inputs
// and events, and no op mixes the images of a batch, image n of a node with
// no event on image n whose inputs are golden at image n is exactly the
// golden activation — so the round only needs to recompute each image's
// fault cone, the downstream closure of the events landing on that image,
// and can serve the golden plane everywhere else.
//
// Soundness rests on three existing contracts:
//
//   - Event purity: injectors derive each node's events from per-node rng
//     splits of the (seed, round) stream, and splitting never advances the
//     parent, so the events a node draws do not depend on which nodes were
//     recomputed before it.
//   - Replay ordering: a recomputed node receives the exact event slice the
//     injector produced, so the engine applies the events in the same
//     per-op order as a full pass — recomputed activations are bit-identical,
//     not merely statistically equivalent.
//   - Image of an event: each engine states beside its op ordering which
//     image an event lands on. Direct conv's op spaces and the adding ops'
//     add spaces start with n, so their censuses are image-major per class
//     (eventImage below); a winograd layer places its events itself
//     (winograd.Layer.EventImage).

// Plane is the golden (fault-free) activation of every node of one network
// for one input batch. It is captured once and read-only afterwards, so any
// number of ExecContexts may share one across goroutines; ForwardDelta
// serves it as the output of every clean (node, image).
type Plane struct {
	net  *Network
	in   *tensor.QTensor
	acts []*tensor.QTensor // private copies; never aliased by op scratch
}

// CapturePlane runs one fault-free pass of in on ctx and copies every
// node's activation into a new plane. The plane keeps in, whose contents
// must not change afterwards.
func (n *Network) CapturePlane(ctx *ExecContext, in *tensor.QTensor) *Plane {
	return n.CaptureSplit(in, []*ExecContext{ctx})
}

// CaptureSplit is CapturePlane run as min(len(ctxs), N) fault-free passes
// over contiguous image ranges of in, pass k on ctxs[k], concurrently
// (par.Do, so one pass runs on the calling goroutine and a panicking pass
// re-raises there). Every node's activation is assembled from the passes'
// image ranges. No op mixes images, and an image range of an NCHW tensor is
// one contiguous run, so the plane equals a one-pass capture byte for byte.
func (n *Network) CaptureSplit(in *tensor.QTensor, ctxs []*ExecContext) *Plane {
	bounds := n.forwardSplit(in, ctxs)
	p := &Plane{net: n, in: in, acts: make([]*tensor.QTensor, len(n.Nodes))}
	for i := range n.Nodes {
		first := ctxs[0].acts[i]
		sh := first.Shape
		per := sh.Elems() / sh.N
		sh.N = in.Shape.N
		act := tensor.NewQ(sh, first.Fmt)
		for k, c := range ctxs[:len(bounds)-1] {
			lo, hi := bounds[k]*per, bounds[k+1]*per
			copy(act.Data[lo:hi], c.acts[i].Data[:hi-lo])
		}
		p.acts[i] = act
	}
	return p
}

// PredictSplit returns the fault-free predictions of in, run as
// CaptureSplit's passes but keeping only each range's argmax.
func (n *Network) PredictSplit(in *tensor.QTensor, ctxs []*ExecContext) []int {
	bounds := n.forwardSplit(in, ctxs)
	golden := make([]int, 0, in.Shape.N)
	for _, c := range ctxs[:len(bounds)-1] {
		golden = append(golden, Argmax(c.acts[n.Output])...)
	}
	return golden
}

// forwardSplit runs a fault-free pass of images [bounds[k], bounds[k+1])
// of in on ctxs[k] for each of min(len(ctxs), N) parts, concurrently, and
// returns the bounds. A lone part runs on in itself, so a one-context split
// is exactly the one-pass capture.
func (n *Network) forwardSplit(in *tensor.QTensor, ctxs []*ExecContext) []int {
	parts := min(len(ctxs), in.Shape.N)
	bounds := make([]int, parts+1)
	for k := range bounds {
		bounds[k] = k * in.Shape.N / parts
	}
	par.Do(parts, parts, func(k int) {
		sub := in
		if parts > 1 {
			sub = in.Images(bounds[k], bounds[k+1])
		}
		n.ForwardCtx(ctxs[k], sub, nil)
	})
	return bounds
}

// Output returns the plane's golden logits. Callers must not modify them.
func (p *Plane) Output() *tensor.QTensor { return p.acts[p.net.Output] }

// Act returns node i's golden activation. Callers must not modify it.
func (p *Plane) Act(i int) *tensor.QTensor { return p.acts[i] }

// deltaState is the reusable per-round working set of ForwardDelta.
type deltaState struct {
	events     [][]fault.Event // per-node events of the current round
	words      int             // words of one node's image set: ⌈N/64⌉
	dirty      []uint64        // node i's dirty images at [i·words, (i+1)·words)
	recomputed int             // node-images the last round computed
}

// ForwardDelta runs the network on plane's input like ForwardCtx but
// recomputes only the round's per-image fault cones. Image n of node i is
// dirty iff one of node i's events lands on n or image n of one of its
// inputs is dirty. A node with no dirty image publishes the plane's tensor;
// a convolution computes only its dirty images and fills the others from
// the plane; every other op runs over the whole batch, whose inputs are
// complete because every published tensor is. A dirty image whose
// recomputed slice equals the plane's re-converges: it turns clean for the
// node's consumers. So a round with few (or no) events costs a small
// fraction of a full pass while remaining bit-identical to ForwardCtx.
//
// Contract: inj must inject exclusively through OpEvents (its Neuron method
// must be a no-op) — neuron-level semantics corrupt activations behind the
// graph's back, where no event stream locates the damage, so those campaigns
// must use ForwardCtx.
//
// A nil inj returns the golden output. The returned tensor may be the
// plane's, which callers must not modify; otherwise it remains valid until
// the next Forward* call on the same context.
func (n *Network) ForwardDelta(ctx *ExecContext, plane *Plane, inj Injector) *tensor.QTensor {
	if ctx.net != n {
		panic("nn: ExecContext bound to a different network")
	}
	if plane.net != n {
		panic("nn: golden plane captured on a different network")
	}
	in := plane.in
	ctx.prepare(in.Shape)
	ctx.delta.recomputed = 0

	// Draw the round's events node by node, in node order — the same
	// calls, against the same per-node streams, a full pass makes. A round
	// without events is the golden run.
	events, faulty := ctx.delta.events, false
	for i := range n.Nodes {
		var evs []fault.Event
		if inj != nil && ctx.hasOps[i] {
			evs = inj.OpEvents(i, ctx.census[i])
		}
		events[i] = evs
		faulty = faulty || len(evs) > 0
	}
	if !faulty {
		clear(ctx.delta.dirty)
		return plane.Output()
	}

	images, words := in.Shape.N, ctx.delta.words
	for i := range n.Nodes {
		// Inputs precede consumers in the topological node order, so their
		// dirty sets are final by now.
		nd := &n.Nodes[i]
		dirty := ctx.delta.dirty[i*words : (i+1)*words]
		clear(dirty)
		evs := events[i]
		ctx.markEvents(i, dirty, evs)
		for _, idx := range nd.Inputs {
			if idx != InputNode {
				for w, v := range ctx.delta.dirty[idx*words : (idx+1)*words] {
					dirty[w] |= v
				}
			}
		}
		count := 0
		for _, v := range dirty {
			count += bits.OnesCount64(v)
		}
		golden := plane.acts[i]
		if count == 0 {
			ctx.acts[i] = golden
			continue
		}

		ins := ctx.ins[i]
		for j, idx := range nd.Inputs {
			if idx == InputNode {
				ins[j] = in
			} else {
				ins[j] = ctx.acts[idx]
			}
		}
		per := golden.Shape.Elems() / images
		var out *tensor.QTensor
		if cv, ok := nd.Op.(*ConvOp); ok && count < images {
			set := tensor.ImageSet(dirty)
			out = cv.forwardImages(ctx.scratch[i], ins, evs, set)
			for img := 0; img < images; img++ {
				if !set.Has(img) {
					copy(out.Data[img*per:(img+1)*per], golden.Data[img*per:(img+1)*per])
				}
			}
		} else {
			out = nd.Op.Forward(ctx.scratch[i], ins, evs)
		}
		ctx.delta.recomputed += count

		// Re-convergence detection: faults are often masked within a layer
		// or two (ReLU clamps negatives, maxpool discards non-maxima,
		// saturating quantization rounds small perturbations away). When a
		// recomputed image equals its golden slice bit for bit, it rejoins
		// the clean region and its consumers skip it — the compare is a
		// linear scan, negligible against any conv. A node whose images all
		// re-converge publishes the plane's tensor, not its scratch output,
		// so clean consumers always read the plane.
		for w, v := range dirty {
			for ; v != 0; v &= v - 1 {
				img := w<<6 | bits.TrailingZeros64(v)
				lo, hi := img*per, (img+1)*per
				if slices.Equal(out.Data[lo:hi], golden.Data[lo:hi]) {
					dirty[w] &^= 1 << (img & 63)
					count--
				}
			}
		}
		if count == 0 {
			ctx.acts[i] = golden
		} else {
			ctx.acts[i] = out
		}
	}
	return ctx.acts[n.Output]
}

// markEvents adds the image each of node i's events lands on to dirty; an
// event beyond its census (which the op's own pass rejects) dirties every
// image.
func (c *ExecContext) markEvents(i int, dirty []uint64, evs []fault.Event) {
	images := c.inShape.N
	for _, ev := range evs {
		img := eventImage(c.net.Nodes[i].Op, c.inShapes[i], c.census[i], ev)
		if img < 0 || img >= images {
			for w := range dirty {
				dirty[w] = ^uint64(0)
			}
			if r := images & 63; r != 0 {
				dirty[len(dirty)-1] = 1<<r - 1
			}
			return
		}
		dirty[img>>6] |= 1 << (img & 63)
	}
}

// eventImage returns the image of the batch that event ev of op, over
// input shapes ins with census c, lands on; an event beyond the census
// maps outside [0, N). A winograd layer states its own rule; every other
// op's census is N equal image-major runs per class, so an event lands on
// image op ÷ (class census ÷ N).
func eventImage(op Op, ins []tensor.Shape, c fault.Census, ev fault.Event) int {
	if cv, ok := op.(*ConvOp); ok && cv.wg != nil {
		return cv.wg.EventImage(ins[0], ev)
	}
	per := c.Class(ev.Class) / int64(ins[0].N)
	if per == 0 {
		return ins[0].N
	}
	return int(ev.Op / per)
}

// RecomputeCount reports how many node-images the last ForwardDelta round
// computed — the per-image fault cone before re-convergence thinning
// (diagnostics and tests only).
func (c *ExecContext) RecomputeCount() int { return c.delta.recomputed }

// DirtyCount reports how many node-images remained dirty after the last
// ForwardDelta round, i.e. the per-image fault cone minus the images whose
// recomputed activations re-converged to golden (diagnostics and tests
// only).
func (c *ExecContext) DirtyCount() int {
	count := 0
	for _, v := range c.delta.dirty {
		count += bits.OnesCount64(v)
	}
	return count
}
