package nn

import (
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// Concurrency model (see DESIGN.md): a Network is immutable after
// construction — nodes, ops and quantized weights are read-only — so any
// number of goroutines may run forward passes over the same Network
// concurrently. All mutable per-pass state (activation storage, resolved
// input views, cached geometry) lives in an ExecContext; each goroutine must
// use its own.
//
// ExecContext additionally hoists the per-node shape and op-census
// computation out of the forward loop: censuses depend only on the input
// batch shape, which is constant across the thousands of Monte-Carlo rounds
// of a fault campaign, so they are computed once per (context, input shape)
// instead of once per round.
//
// It is also the allocation arena of the hot path: every node owns a Scratch
// (recycled output tensors, padded-input copies, cached accumulator-scale
// biases) threaded through Op.Forward, and the winograd nodes share the
// context's one int64 working set (accumulators and transform buffers,
// sized by the largest node), since a context runs one node at a time. So
// after the first round a steady-state fault-free ForwardCtx performs no
// heap allocation at all (enforced by TestForwardCtxAllocFree).
//
// For delta execution (ForwardDelta, see delta.go) the context additionally
// carries one dirty-image set and one event-image set per node, sized with
// its geometry; the reference activations it serves live in a read-only
// Plane that all contexts share. Steady-state delta rounds are
// allocation-free too. A context kept idle between passes (a runner keeps
// its workers' contexts between calls) should be detached, so that it keeps
// no plane alive.

// ExecContext is the reusable per-goroutine state of forward passes over one
// Network. The zero value is not usable; obtain one from
// Network.NewExecContext. An ExecContext must not be shared between
// goroutines; creating one is cheap relative to a single forward pass, so
// worker pools simply allocate one per worker.
type ExecContext struct {
	net     *Network
	inShape tensor.Shape // input shape the cached geometry was computed for

	shapes   []tensor.Shape   // per-node output shapes for inShape
	inShapes [][]tensor.Shape // per-node input shapes for inShape
	census   []fault.Census   // per-node op censuses for inShape
	hasOps   []bool           // census[i].Total() > 0, hoisted out of the round loop
	acts     []*tensor.QTensor
	ins      [][]*tensor.QTensor // per-node resolved input views, refilled per pass
	scratch  []*Scratch          // per-node reusable buffer arenas (see scratch.go)
	wgb      winograd.Buffers    // int64 working set of every winograd node: one runs at a time
	delta    deltaState          // per-round delta-execution working set
	backend  kernel.Backend      // compute backend for the fault-free hot paths
}

// UseBackend selects the compute backend for subsequent forward passes on
// this context; nil restores the process default (kernel.Default, resolved at
// the engine level). Backends are bit-identical by contract, so switching can
// never change results — only wall-clock.
func (c *ExecContext) UseBackend(b kernel.Backend) {
	if c.backend == b {
		return
	}
	c.backend = b
	for _, s := range c.scratch {
		if s != nil {
			s.kb = b
		}
	}
}

// NewExecContext returns an execution context bound to this network.
func (n *Network) NewExecContext() *ExecContext {
	return &ExecContext{net: n}
}

// prepare (re)computes the cached geometry when the input shape changes.
func (c *ExecContext) prepare(inShape tensor.Shape) {
	if c.shapes != nil && inShape == c.inShape {
		return
	}
	n := c.net
	c.inShape = inShape
	words := (inShape.N + 63) / 64
	c.delta = deltaState{
		words: words,
		dirty: make([]uint64, len(n.Nodes)*words),
		evimg: make([]uint64, len(n.Nodes)*words),
	}
	c.shapes = make([]tensor.Shape, len(n.Nodes))
	c.inShapes = make([][]tensor.Shape, len(n.Nodes))
	c.census = make([]fault.Census, len(n.Nodes))
	c.hasOps = make([]bool, len(n.Nodes))
	c.acts = make([]*tensor.QTensor, len(n.Nodes))
	c.ins = make([][]*tensor.QTensor, len(n.Nodes))
	c.scratch = make([]*Scratch, len(n.Nodes))
	for i := range n.Nodes {
		ins := n.shapesOf(i, c.shapes, inShape)
		c.inShapes[i] = ins
		c.census[i] = n.Nodes[i].Op.Census(ins)
		c.hasOps[i] = c.census[i].Total() > 0
		c.shapes[i] = n.Nodes[i].Op.OutShape(ins)
		c.ins[i] = make([]*tensor.QTensor, len(n.Nodes[i].Inputs))
		c.scratch[i] = &Scratch{kb: c.backend, wgb: &c.wgb}
	}
}

// Detach drops the context's pointers to the activations and inputs of its
// last pass, which may be a plane's, so that an idle context keeps no plane
// alive. Its scratch arenas stay warm; every pass sets the pointers again.
func (c *ExecContext) Detach() {
	clear(c.acts)
	for _, ins := range c.ins {
		clear(ins)
	}
}

// ForwardCtx runs the network on a quantized input batch using ctx for all
// per-pass mutable state. inj may be nil for a golden run. The returned
// tensor is the output node's activation (logits); it remains valid until
// the next ForwardCtx call on the same context.
func (n *Network) ForwardCtx(ctx *ExecContext, in *tensor.QTensor, inj Injector) *tensor.QTensor {
	if ctx.net != n {
		panic("nn: ExecContext bound to a different network")
	}
	ctx.prepare(in.Shape)
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		ins := ctx.ins[i]
		for j, idx := range nd.Inputs {
			if idx == InputNode {
				ins[j] = in
			} else {
				ins[j] = ctx.acts[idx]
			}
		}
		var events []fault.Event
		if inj != nil && ctx.hasOps[i] {
			events = inj.OpEvents(i, ctx.census[i])
		}
		ctx.acts[i] = nd.Op.Forward(ctx.scratch[i], ins, events)
		if inj != nil {
			inj.Neuron(i, ctx.acts[i])
		}
	}
	return ctx.acts[n.Output]
}
