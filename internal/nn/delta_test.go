package nn

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// mapInjector hands the forward pass a fixed per-node event assignment. Its
// Neuron method is a no-op, so it satisfies the ForwardDelta contract.
type mapInjector struct{ events map[int][]fault.Event }

func (m *mapInjector) OpEvents(li int, c fault.Census) []fault.Event { return m.events[li] }
func (m *mapInjector) Neuron(int, *tensor.QTensor)                   {}

// nodeByName resolves a node index for event placement in tests.
func nodeByName(t *testing.T, net *Network, name string) int {
	t.Helper()
	for i := range net.Nodes {
		if net.Nodes[i].Name == name {
			return i
		}
	}
	t.Fatalf("no node named %q", name)
	return -1
}

// TestForwardDeltaMatchesForwardCtx is the core delta-execution equivalence
// guarantee at the engine level: for any event assignment, ForwardDelta on a
// long-lived context produces logits bit-identical to ForwardCtx on a fresh
// context. Rounds with different event placements run back to back on the
// same delta context, so stale golden reuse, cone under-approximation or
// scratch aliasing between clean and dirty rounds would all surface here.
func TestForwardDeltaMatchesForwardCtx(t *testing.T) {
	for _, kind := range []EngineKind{Direct, Winograd} {
		t.Run(kind.String(), func(t *testing.T) {
			net := buildTiny(kind, 17, fixed.Int16)
			in := qIn(41, 2, 3, 16, 16, fixed.Int16)
			conv1 := nodeByName(t, net, "conv1")
			resB := nodeByName(t, net, "res.b")
			br1 := nodeByName(t, net, "br1")
			fc := nodeByName(t, net, "fc")
			mul := func(li int, op int64, bit uint8) fault.Event {
				return fault.Event{Class: fault.OpMul, Op: op, Bit: bit, Operand: fault.ResultReg}
			}
			rounds := []map[int][]fault.Event{
				nil, // clean round
				{conv1: {mul(conv1, 3, 27)}},
				{resB: {mul(resB, 11, 25)}, br1: {mul(br1, 0, 20)}},
				nil, // clean round between dirty ones
				{fc: {mul(fc, 1, 15)}},
				{conv1: {mul(conv1, 3, 27), mul(conv1, 9, 4)}, fc: {mul(fc, 2, 10)}},
			}
			dctx := net.NewExecContext()
			for ri, events := range rounds {
				var inj Injector
				if events != nil {
					inj = &mapInjector{events: events}
				}
				got := net.ForwardDelta(dctx, in, inj)
				want := net.ForwardCtx(net.NewExecContext(), in, inj)
				if !equalQ(got, want) {
					t.Errorf("round %d: ForwardDelta logits diverge from ForwardCtx", ri)
				}
			}
		})
	}
}

// TestForwardDeltaDirtyClosure pins the dirty-set edge cases: an empty round
// recomputes nothing, an event on the input-consuming node dirties the whole
// graph (full recompute), and events on every op-carrying node cost exactly
// one Forward per node — delta execution never does more work than a full
// pass.
func TestForwardDeltaDirtyClosure(t *testing.T) {
	net := buildTiny(Direct, 17, fixed.Int16)
	in := qIn(42, 1, 3, 16, 16, fixed.Int16)
	ctx := net.NewExecContext()

	// Empty round: the golden plane answers directly.
	out := net.ForwardDelta(ctx, in, &mapInjector{})
	if ctx.RecomputeCount() != 0 || ctx.DirtyCount() != 0 {
		t.Errorf("empty round recomputed %d nodes (dirty %d), want 0",
			ctx.RecomputeCount(), ctx.DirtyCount())
	}
	if !equalQ(out, net.ForwardCtx(net.NewExecContext(), in, nil)) {
		t.Error("empty round did not return the golden logits")
	}

	// Event on the first node (the only input consumer): everything is
	// downstream, so the closure is the whole graph.
	conv1 := nodeByName(t, net, "conv1")
	ev := fault.Event{Class: fault.OpMul, Op: 3, Bit: 27, Operand: fault.ResultReg}
	net.ForwardDelta(ctx, in, &mapInjector{events: map[int][]fault.Event{conv1: {ev}}})
	if got := ctx.RecomputeCount(); got != len(net.Nodes) {
		t.Errorf("input-node event recomputed %d of %d nodes, want all", got, len(net.Nodes))
	}

	// Events on every op-carrying node: delta degenerates to exactly one
	// Forward per node, never more.
	all := map[int][]fault.Event{}
	for i := range net.Nodes {
		all[i] = []fault.Event{ev}
	}
	net.ForwardDelta(ctx, in, &mapInjector{events: all})
	if got := ctx.RecomputeCount(); got != len(net.Nodes) {
		t.Errorf("all-nodes events recomputed %d of %d nodes, want all", got, len(net.Nodes))
	}
}

// TestForwardDeltaReconvergence: a masked fault must not drag its downstream
// closure through recomputation. A duplicated event flips the same bit twice
// (the replay engines apply events in order, pinned by TestAddOpFaultReplay),
// so the recomputed node lands exactly on its golden activation and every
// consumer stays on the plane.
func TestForwardDeltaReconvergence(t *testing.T) {
	net := buildTiny(Direct, 17, fixed.Int16)
	in := qIn(43, 1, 3, 16, 16, fixed.Int16)
	ctx := net.NewExecContext()
	add := nodeByName(t, net, "res.add")
	ev := fault.Event{Class: fault.OpAdd, Op: 5, Bit: 9}
	out := net.ForwardDelta(ctx, in, &mapInjector{events: map[int][]fault.Event{add: {ev, ev}}})
	if got := ctx.RecomputeCount(); got != 1 {
		t.Errorf("self-canceling event recomputed %d nodes, want 1", got)
	}
	if got := ctx.DirtyCount(); got != 0 {
		t.Errorf("re-converged node left %d dirty nodes", got)
	}
	if !equalQ(out, net.ForwardCtx(net.NewExecContext(), in, nil)) {
		t.Error("re-converged round did not return the golden logits")
	}
}

// TestForwardDeltaInputChange: swapping evaluation inputs on one context must
// re-capture the golden plane, and an in-place mutation is handled by
// InvalidateGolden, per the documented contract.
func TestForwardDeltaInputChange(t *testing.T) {
	net := buildTiny(Winograd, 17, fixed.Int16)
	inA := qIn(44, 1, 3, 16, 16, fixed.Int16)
	inB := qIn(45, 1, 3, 16, 16, fixed.Int16)
	conv1 := nodeByName(t, net, "conv1")
	inj := &mapInjector{events: map[int][]fault.Event{
		conv1: {{Class: fault.OpMul, Op: 7, Bit: 26, Operand: fault.ResultReg}},
	}}
	ctx := net.NewExecContext()
	for i, in := range []*tensor.QTensor{inA, inB, inA} {
		got := net.ForwardDelta(ctx, in, inj)
		want := net.ForwardCtx(net.NewExecContext(), in, inj)
		if !equalQ(got, want) {
			t.Errorf("input swap %d: delta logits diverge", i)
		}
	}
	// Mutate inA in place behind the context's back.
	inA.Data[0] ^= 1 << 12
	ctx.InvalidateGolden()
	if !equalQ(net.ForwardDelta(ctx, inA, inj), net.ForwardCtx(net.NewExecContext(), inA, inj)) {
		t.Error("InvalidateGolden did not refresh the plane after in-place mutation")
	}
}

// TestForwardDeltaAllocFree extends the arena contract to the golden-snapshot
// plane: once the plane and scratch arenas are warm, the delta machinery adds
// zero heap allocations, under both compute backends. A clean round allocates
// exactly nothing; a dirty round allocates no more than the same round under
// full ForwardCtx (the event-replay engines allocate proportionally to the
// events they apply, which is unchanged by delta execution).
func TestForwardDeltaAllocFree(t *testing.T) {
	for _, kind := range []EngineKind{Direct, Winograd} {
		for _, backend := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(backend)
			if err != nil {
				t.Fatal(err)
			}
			net := buildTiny(kind, 17, fixed.Int16)
			in := qIn(46, 2, 3, 16, 16, fixed.Int16)
			conv1 := nodeByName(t, net, "conv1")
			dirty := &mapInjector{events: map[int][]fault.Event{
				conv1: {{Class: fault.OpMul, Op: 3, Bit: 27, Operand: fault.ResultReg}},
			}}
			clean := Injector(&mapInjector{})
			ctx := net.NewExecContext()
			ctx.UseBackend(bk)
			net.ForwardDelta(ctx, in, dirty) // warm plane + every node's scratch
			if allocs := testing.AllocsPerRun(10, func() { net.ForwardDelta(ctx, in, clean) }); allocs != 0 {
				t.Errorf("%v/%s: steady-state clean ForwardDelta allocates %v times per round, want 0",
					kind, backend, allocs)
			}
			fctx := net.NewExecContext()
			fctx.UseBackend(bk)
			net.ForwardCtx(fctx, in, dirty) // warm the full-execution baseline
			full := testing.AllocsPerRun(10, func() { net.ForwardCtx(fctx, in, dirty) })
			delta := testing.AllocsPerRun(10, func() { net.ForwardDelta(ctx, in, dirty) })
			if delta > full {
				t.Errorf("%v/%s: dirty ForwardDelta allocates %v times per round, full ForwardCtx %v — delta must add none",
					kind, backend, delta, full)
			}
		}
	}
}

// TestForwardDeltaWrongContext: the context-network binding panic applies to
// the delta path too.
func TestForwardDeltaWrongContext(t *testing.T) {
	a := buildTiny(Direct, 1, fixed.Int16)
	b := buildTiny(Direct, 2, fixed.Int16)
	defer func() {
		if recover() == nil {
			t.Error("ForwardDelta accepted a foreign ExecContext")
		}
	}()
	a.ForwardDelta(b.NewExecContext(), qIn(1, 1, 3, 16, 16, fixed.Int16), nil)
}
