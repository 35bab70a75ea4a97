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
// and can serve the golden plane everywhere else. The same holds against
// any captured round: a round that draws a reference round's own events at
// every node but a few recomputes only where those few nodes' events, its
// own or the reference's, land — so a layer-sensitivity campaign runs as a
// delta against its batch's all-faulty baseline round.
//
// Soundness rests on three existing contracts:
//
//   - Event purity: injectors derive each node's events from per-node rng
//     splits of the (seed, round) stream, and splitting never advances the
//     parent, so the events a node draws do not depend on which nodes were
//     recomputed, or had their events drawn, before it.
//   - Replay ordering: a recomputed node receives the exact event slice the
//     injector produced, so the engine applies the events in the same
//     per-op order as a full pass — recomputed activations are bit-identical,
//     not merely statistically equivalent.
//   - Image of an event: each engine states beside its op ordering which
//     image an event lands on. Direct conv's op spaces and the adding ops'
//     add spaces start with n, so their censuses are image-major per class
//     (eventImage below); a winograd layer places its events itself
//     (winograd.Layer.EventImage).

// Plane is the activation of every node of one network for one input batch
// under one round of events: the golden (fault-free) run, or a faulty round
// captured after ForwardDelta (CaptureRound). It is read-only once built, so
// any number of ExecContexts may share one across goroutines; ForwardDelta
// serves it as the output of every clean (node, image).
type Plane struct {
	net  *Network
	in   *tensor.QTensor
	acts []*tensor.QTensor // private copies; never aliased by op scratch
	// evimg holds, at [i·words, (i+1)·words) with words = ⌈N/64⌉, the
	// images the round's events at node i land on: none for the golden
	// plane.
	evimg []uint64
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
	p := &Plane{
		net:   n,
		in:    in,
		acts:  make([]*tensor.QTensor, len(n.Nodes)),
		evimg: make([]uint64, len(n.Nodes)*((in.Shape.N+63)/64)),
	}
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
	words      int           // words of one node's image set: ⌈N/64⌉
	dirty      []uint64      // node i's dirty images at [i·words, (i+1)·words)
	evimg      []uint64      // node i's event images, laid out like dirty
	kept       []fault.Event // a conv's events that land on its dirty images
	recomputed int           // node-images the last round computed
}

// ForwardDelta runs the network on ref's input like ForwardCtx but
// recomputes only where the round can differ from ref's round: the golden
// plane, or a faulty round captured by CaptureRound. differ marks the nodes
// (by index) at which inj's events may differ from ref's round; at every
// other node inj must draw exactly ref's events. nil marks every node,
// which is how a round runs against the golden plane.
//
// Image n of node i is dirty iff image n of one of its inputs is dirty, or
// node i differs and an event of either round lands on n. A node that does
// not differ and has no dirty input draws no events and computes nothing,
// so everything before the first differing node is skipped. A node with no
// dirty image publishes ref's tensor; a convolution computes only its dirty
// images, with only the events that land on them (at a node that does not
// differ, the events on its clean images are ref's and already in ref's
// tensor), and fills the others from ref; every other op runs over the
// whole batch, whose inputs are complete because every published tensor
// is. A dirty image whose recomputed slice equals ref's re-converges: it
// turns clean for the node's consumers. So a round that shares most of its
// events with ref costs a small fraction of a full pass while remaining
// bit-identical to ForwardCtx.
//
// Contract: inj must inject exclusively through OpEvents (its Neuron method
// must be a no-op) — neuron-level semantics corrupt activations behind the
// graph's back, where no event stream locates the damage, so those campaigns
// must use ForwardCtx.
//
// A nil inj draws no events. The returned tensor may be ref's, which
// callers must not modify; otherwise it remains valid until the next
// Forward* call on the same context.
func (n *Network) ForwardDelta(ctx *ExecContext, ref *Plane, differ []bool, inj Injector) *tensor.QTensor {
	if ctx.net != n {
		panic("nn: ExecContext bound to a different network")
	}
	if ref.net != n {
		panic("nn: reference plane captured on a different network")
	}
	in := ref.in
	ctx.prepare(in.Shape)
	d := &ctx.delta
	d.recomputed = 0

	images, words := in.Shape.N, d.words
	for i := range n.Nodes {
		// Inputs precede consumers in the topological node order, so their
		// dirty sets are final by now.
		nd := &n.Nodes[i]
		dirty := d.dirty[i*words : (i+1)*words]
		evimg := d.evimg[i*words : (i+1)*words]
		clear(dirty)
		for _, idx := range nd.Inputs {
			if idx != InputNode {
				orInto(dirty, d.dirty[idx*words:(idx+1)*words])
			}
		}
		refimg := ref.evimg[i*words : (i+1)*words]
		differs := differ == nil || differ[i]
		if !differs {
			// The node draws ref's events, so its event images are ref's.
			copy(evimg, refimg)
			if !anySet(dirty) {
				ctx.acts[i] = ref.acts[i]
				continue
			}
		}

		// Draw the node's events — the same call, against the same
		// per-node stream, a full pass makes.
		var evs []fault.Event
		if inj != nil && ctx.hasOps[i] {
			evs = inj.OpEvents(i, ctx.census[i])
		}
		if differs {
			clear(evimg)
			ctx.markEvents(i, evimg, evs)
			orInto(dirty, evimg)
			orInto(dirty, refimg)
		}
		count := 0
		for _, v := range dirty {
			count += bits.OnesCount64(v)
		}
		refAct := ref.acts[i]
		if count == 0 {
			ctx.acts[i] = refAct
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
		per := refAct.Shape.Elems() / images
		var out *tensor.QTensor
		if cv, ok := nd.Op.(*ConvOp); ok && count < images {
			set := tensor.ImageSet(dirty)
			if !differs {
				evs = ctx.keepEvents(i, set, evs)
			}
			out = cv.forwardImages(ctx.scratch[i], ins, evs, set)
			for img := 0; img < images; img++ {
				if !set.Has(img) {
					copy(out.Data[img*per:(img+1)*per], refAct.Data[img*per:(img+1)*per])
				}
			}
		} else {
			out = nd.Op.Forward(ctx.scratch[i], ins, evs)
		}
		d.recomputed += count

		// Re-convergence detection: faults are often masked within a layer
		// or two (ReLU clamps negatives, maxpool discards non-maxima,
		// saturating quantization rounds small perturbations away). When a
		// recomputed image equals ref's slice bit for bit, it rejoins the
		// clean region and its consumers skip it — the compare is a linear
		// scan, negligible against any conv. A node whose images all
		// re-converge publishes ref's tensor, not its scratch output, so
		// clean consumers always read ref.
		for w, v := range dirty {
			for ; v != 0; v &= v - 1 {
				img := w<<6 | bits.TrailingZeros64(v)
				lo, hi := img*per, (img+1)*per
				if slices.Equal(out.Data[lo:hi], refAct.Data[lo:hi]) {
					dirty[w] &^= 1 << (img & 63)
					count--
				}
			}
		}
		if count == 0 {
			ctx.acts[i] = refAct
		} else {
			ctx.acts[i] = out
		}
	}
	return ctx.acts[n.Output]
}

// CaptureRound copies the activations of ctx's last pass, a ForwardDelta
// round against ref, into a new plane that records the round's event
// images, so that later rounds sharing most of its events can run against
// it. A node the round left clean aliases ref's tensor (for a round against
// the golden plane, the golden tensor): only the round's dirty nodes are
// copied.
func (n *Network) CaptureRound(ctx *ExecContext, ref *Plane) *Plane {
	if ctx.net != n || ref.net != n {
		panic("nn: capture across networks")
	}
	p := &Plane{net: n, in: ref.in, acts: make([]*tensor.QTensor, len(n.Nodes)), evimg: slices.Clone(ctx.delta.evimg)}
	for i, act := range ctx.acts {
		if act != ref.acts[i] {
			act = act.Clone()
		}
		p.acts[i] = act
	}
	return p
}

// keepEvents returns the events of node i that land on an image in set, in
// order, in the context's reusable buffer. An event beyond the census stays,
// so the op's own pass still rejects it.
func (c *ExecContext) keepEvents(i int, set tensor.ImageSet, evs []fault.Event) []fault.Event {
	kept := c.delta.kept[:0]
	for _, ev := range evs {
		img := eventImage(c.net.Nodes[i].Op, c.inShapes[i], c.census[i], ev)
		if img < 0 || img >= c.inShape.N || set.Has(img) {
			kept = append(kept, ev)
		}
	}
	c.delta.kept = kept
	return kept
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

// orInto sets in dst every bit set in src.
func orInto(dst, src []uint64) {
	for w, v := range src {
		dst[w] |= v
	}
}

// anySet reports whether any bit of s is set.
func anySet(s []uint64) bool {
	for _, v := range s {
		if v != 0 {
			return true
		}
	}
	return false
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
