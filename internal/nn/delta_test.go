package nn

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
	"repro/internal/winograd"
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
// The batch has two images, so some rounds leave one image clean.
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
			plane := net.CapturePlane(net.NewExecContext(), in)
			for ri, events := range rounds {
				var inj Injector
				if events != nil {
					inj = &mapInjector{events: events}
				}
				got := net.ForwardDelta(dctx, plane, nil, inj)
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
	plane := net.CapturePlane(net.NewExecContext(), in)

	// Empty round: the golden plane answers directly.
	out := net.ForwardDelta(ctx, plane, nil, &mapInjector{})
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
	net.ForwardDelta(ctx, plane, nil, &mapInjector{events: map[int][]fault.Event{conv1: {ev}}})
	if got := ctx.RecomputeCount(); got != len(net.Nodes) {
		t.Errorf("input-node event recomputed %d of %d nodes, want all", got, len(net.Nodes))
	}

	// Events on every op-carrying node: delta degenerates to exactly one
	// Forward per node, never more.
	all := map[int][]fault.Event{}
	for i := range net.Nodes {
		all[i] = []fault.Event{ev}
	}
	net.ForwardDelta(ctx, plane, nil, &mapInjector{events: all})
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
	plane := net.CapturePlane(ctx, in)
	add := nodeByName(t, net, "res.add")
	ev := fault.Event{Class: fault.OpAdd, Op: 5, Bit: 9}
	out := net.ForwardDelta(ctx, plane, nil, &mapInjector{events: map[int][]fault.Event{add: {ev, ev}}})
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

// TestForwardDeltaInputChange: planes of two evaluation inputs alternate on
// one context, and each round equals full execution of its own plane's
// input — the context holds no golden state of its own.
func TestForwardDeltaInputChange(t *testing.T) {
	net := buildTiny(Winograd, 17, fixed.Int16)
	inA := qIn(44, 1, 3, 16, 16, fixed.Int16)
	inB := qIn(45, 1, 3, 16, 16, fixed.Int16)
	conv1 := nodeByName(t, net, "conv1")
	inj := &mapInjector{events: map[int][]fault.Event{
		conv1: {{Class: fault.OpMul, Op: 7, Bit: 26, Operand: fault.ResultReg}},
	}}
	ctx := net.NewExecContext()
	planeA := net.CapturePlane(net.NewExecContext(), inA)
	planeB := net.CapturePlane(net.NewExecContext(), inB)
	for i, in := range []*tensor.QTensor{inA, inB, inA, inB} {
		plane := planeA
		if in == inB {
			plane = planeB
		}
		got := net.ForwardDelta(ctx, plane, nil, inj)
		want := net.ForwardCtx(net.NewExecContext(), in, inj)
		if !equalQ(got, want) {
			t.Errorf("input swap %d: delta logits diverge", i)
		}
	}
}

// TestForwardDeltaAllocFree extends the arena contract to delta execution:
// once the scratch arenas are warm, the delta machinery adds zero heap
// allocations, under both compute backends. A clean round allocates exactly
// nothing; a dirty round allocates no more than the same round under full
// ForwardCtx (the event-replay engines allocate proportionally to the
// events they apply, which is unchanged by delta execution), whether its
// events dirty every image or land on one image of four. Steady-state
// rounds against a captured faulty round allocate nothing.
func TestForwardDeltaAllocFree(t *testing.T) {
	for _, kind := range []EngineKind{Direct, Winograd} {
		for _, backend := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(backend)
			if err != nil {
				t.Fatal(err)
			}
			net := buildTiny(kind, 17, fixed.Int16)
			in := qIn(46, 4, 3, 16, 16, fixed.Int16)
			conv1 := nodeByName(t, net, "conv1")
			conv1Muls := net.LayerCensus(in.Shape)[conv1].Mul
			ev := func(op int64) fault.Event {
				return fault.Event{Class: fault.OpMul, Op: op, Bit: 27, Operand: fault.ResultReg}
			}
			rounds := map[string]Injector{
				"every image": &mapInjector{events: map[int][]fault.Event{conv1: {
					ev(3), ev(conv1Muls/4 + 3), ev(conv1Muls/2 + 3), ev(conv1Muls - 3),
				}}},
				"one image": &mapInjector{events: map[int][]fault.Event{conv1: {
					ev(conv1Muls/2 + 3), ev(conv1Muls/2 + 9),
				}}},
			}
			ctx := net.NewExecContext()
			ctx.UseBackend(bk)
			plane := net.CapturePlane(ctx, in)
			for _, dirty := range rounds {
				net.ForwardDelta(ctx, plane, nil, dirty) // warm every node's scratch
			}
			clean := Injector(&mapInjector{})
			if allocs := testing.AllocsPerRun(10, func() { net.ForwardDelta(ctx, plane, nil, clean) }); allocs != 0 {
				t.Errorf("%v/%s: steady-state clean ForwardDelta allocates %v times per round, want 0",
					kind, backend, allocs)
			}
			for name, dirty := range rounds {
				fctx := net.NewExecContext()
				fctx.UseBackend(bk)
				net.ForwardCtx(fctx, in, dirty) // warm the full-execution baseline
				full := testing.AllocsPerRun(10, func() { net.ForwardCtx(fctx, in, dirty) })
				delta := testing.AllocsPerRun(10, func() { net.ForwardDelta(ctx, plane, nil, dirty) })
				if delta > full {
					t.Errorf("%v/%s/%s: dirty ForwardDelta allocates %v times per round, full ForwardCtx %v — delta must add none",
						kind, backend, name, delta, full)
				}
			}

			// Rounds against a captured faulty round: the reference has
			// events at conv1 on every image and at res.b and fc; the
			// rounds drop conv1's (every image dirty), drop fc's, or
			// change res.b's, which keeps some convs' events off their
			// dirty images.
			resB, fc := nodeByName(t, net, "res.b"), nodeByName(t, net, "fc")
			resBMuls, fcMuls := net.LayerCensus(in.Shape)[resB].Mul, net.LayerCensus(in.Shape)[fc].Mul
			base := maps.Clone(rounds["every image"].(*mapInjector).events)
			base[resB] = []fault.Event{ev(resBMuls/4 + 7)}
			base[fc] = []fault.Event{ev(fcMuls - 5)}
			net.ForwardDelta(ctx, plane, nil, &mapInjector{events: base})
			ref := net.CaptureRound(ctx, plane)
			except := func(li int, evs ...fault.Event) (Injector, []bool) {
				m := maps.Clone(base)
				m[li] = evs
				differ := make([]bool, len(net.Nodes))
				differ[li] = true
				return &mapInjector{events: m}, differ
			}
			for name, li := range map[string]int{"conv1 fault-free": conv1, "fc fault-free": fc, "res.b moved": resB} {
				var evs []fault.Event
				if li == resB {
					evs = []fault.Event{ev(3 * resBMuls / 4)}
				}
				inj, differ := except(li, evs...)
				net.ForwardDelta(ctx, ref, differ, inj) // warm
				if allocs := testing.AllocsPerRun(10, func() { net.ForwardDelta(ctx, ref, differ, inj) }); allocs != 0 {
					t.Errorf("%v/%s/%s: steady-state ForwardDelta against a reference allocates %v times per round, want 0",
						kind, backend, name, allocs)
				}
			}
		}
	}
}

// TestForwardDeltaAgainstReference: a faulty round captured after
// ForwardDelta equals full execution node for node, and a round whose
// events differ from it only at the named nodes, run as a delta against
// it, equals full execution of its own events — and so does a third round
// run against that round's capture — while no reference changes. The
// events cover every image of four, on convs, an add, the DWM layer and
// the FC head, on the direct engine and both winograd tiles.
func TestForwardDeltaAgainstReference(t *testing.T) {
	for _, e := range []struct {
		kind EngineKind
		tile *winograd.Tile
	}{{Direct, winograd.F2}, {Winograd, winograd.F2}, {Winograd, winograd.F4}} {
		net := buildDelta(e.kind, e.tile)
		in := qIn(62, 4, 3, 16, 16, fixed.Int16)
		census := net.LayerCensus(in.Shape)
		node := func(name string) int { return nodeByName(t, net, name) }
		// ev places a mul (or, with add, an add) event at a fraction of the
		// node's class census: image-major, so fraction k/4 starts image k.
		ev := func(name string, frac float64, bit uint8, add bool) fault.Event {
			cl := fault.OpMul
			if add || census[node(name)].Mul == 0 {
				cl = fault.OpAdd
			}
			op := int64(frac * float64(census[node(name)].Class(cl)))
			if cl == fault.OpMul {
				return fault.Event{Class: cl, Op: op, Bit: bit, Operand: fault.ResultReg}
			}
			return fault.Event{Class: cl, Op: op, Bit: bit}
		}
		base := map[int][]fault.Event{
			node("conv1"):   {ev("conv1", 0.30, 27, false), ev("conv1", 0.80, 25, false)},
			node("res.b"):   {ev("res.b", 0.55, 26, false)},
			node("res.add"): {ev("res.add", 0.05, 13, true)},
			node("br3"):     {ev("br3", 0.93, 24, false)},
			node("dwm"):     {ev("dwm", 0.40, 26, false)},
			node("fc"):      {ev("fc", 0.70, 20, false)},
		}
		// with returns base with node name's events replaced (nil drops them).
		with := func(m map[int][]fault.Event, name string, evs ...fault.Event) map[int][]fault.Event {
			out := maps.Clone(m)
			out[node(name)] = evs
			return out
		}
		differ := func(names ...string) []bool {
			d := make([]bool, len(net.Nodes))
			for _, name := range names {
				d[node(name)] = true
			}
			return d
		}
		golden := net.CapturePlane(net.NewExecContext(), in)
		ctx := net.NewExecContext()
		net.ForwardDelta(ctx, golden, nil, &mapInjector{events: base})
		ref := net.CaptureRound(ctx, golden)
		full := net.NewExecContext()
		net.ForwardCtx(full, in, &mapInjector{events: base})
		snapshot := func(p *Plane) [][]int32 {
			var out [][]int32
			for i := range net.Nodes {
				a := p.Act(i)
				if a.Shape != full.acts[i].Shape {
					t.Fatalf("node %s: captured shape %v, want %v", net.Nodes[i].Name, a.Shape, full.acts[i].Shape)
				}
				out = append(out, slices.Clone(a.Data))
			}
			return out
		}
		for i, data := range snapshot(ref) {
			if !slices.Equal(data, full.acts[i].Data) {
				t.Fatalf("%v/%s: node %s of the captured round differs from ForwardCtx", e.kind, e.tile.Name, net.Nodes[i].Name)
			}
		}
		before := snapshot(ref)
		for _, c := range []struct {
			name   string
			events map[int][]fault.Event
			differ []bool
		}{
			{"same events", base, differ()},
			{"conv1 fault-free", with(base, "conv1"), differ("conv1")},
			{"fc fault-free", with(base, "fc"), differ("fc")},
			{"dwm fault-free", with(base, "dwm"), differ("dwm")},
			{"res.add fault-free", with(base, "res.add"), differ("res.add")},
			{"other event on res.b", with(base, "res.b", ev("res.b", 0.10, 25, false)), differ("res.b")},
			{"new events on br1 and gap", with(with(base, "br1", ev("br1", 0.60, 26, false)), "gap", ev("gap", 0.20, 11, true)), differ("br1", "gap")},
			{"every node differs", map[int][]fault.Event{node("br3"): {ev("br3", 0.15, 26, false)}}, nil},
		} {
			inj := &mapInjector{events: c.events}
			got := net.ForwardDelta(ctx, ref, c.differ, inj)
			want := net.ForwardCtx(net.NewExecContext(), in, inj)
			if !equalQ(got, want) {
				t.Errorf("%v/%s, %s: delta against the captured round diverges from ForwardCtx", e.kind, e.tile.Name, c.name)
			}
			// Nothing before the first differing node is computed.
			if c.differ != nil {
				most := 0
				if first := slices.Index(c.differ, true); first >= 0 {
					most = in.Shape.N * (len(net.Nodes) - first)
				}
				if ctx.RecomputeCount() > most {
					t.Errorf("%v/%s, %s: recomputed %d node-images, want at most %d", e.kind, e.tile.Name, c.name, ctx.RecomputeCount(), most)
				}
			}
			// A third round, differing from this one at dwm, against this
			// one's capture.
			second := net.CaptureRound(ctx, ref)
			third := &mapInjector{events: with(c.events, "dwm", ev("dwm", 0.90, 27, false))}
			if got, want := net.ForwardDelta(ctx, second, differ("dwm"), third), net.ForwardCtx(net.NewExecContext(), in, third); !equalQ(got, want) {
				t.Errorf("%v/%s, %s: a round against the round's capture diverges from ForwardCtx", e.kind, e.tile.Name, c.name)
			}
		}
		for i, data := range snapshot(ref) {
			if !slices.Equal(data, before[i]) {
				t.Fatalf("%v/%s: node %s of the reference changed", e.kind, e.tile.Name, net.Nodes[i].Name)
			}
		}
	}
}

// TestForwardCtxAfterSparseDelta: a sparse ForwardDelta computes only its
// dirty images into the context's scratch, and the image set must not
// outlive that call — a following ForwardCtx on the same context equals one
// on a fresh context. The context first holds a round with events on every
// image, and the last pass runs another input, so leaked stale images
// would show.
func TestForwardCtxAfterSparseDelta(t *testing.T) {
	for _, kind := range []EngineKind{Direct, Winograd} {
		net := buildDelta(kind, winograd.F2)
		in := qIn(48, 4, 3, 16, 16, fixed.Int16)
		conv1 := nodeByName(t, net, "conv1")
		muls := net.LayerCensus(in.Shape)[conv1].Mul
		mul := func(op int64) fault.Event {
			return fault.Event{Class: fault.OpMul, Op: op, Bit: 27, Operand: fault.ResultReg}
		}
		every := &mapInjector{events: map[int][]fault.Event{conv1: {mul(3), mul(muls/4 + 3), mul(muls/2 + 3), mul(muls - 3)}}}
		sparse := &mapInjector{events: map[int][]fault.Event{conv1: {mul(muls/4 + 5)}}}

		ctx := net.NewExecContext()
		plane := net.CapturePlane(net.NewExecContext(), in)
		net.ForwardCtx(ctx, in, every)
		net.ForwardDelta(ctx, plane, nil, sparse)
		if got := ctx.RecomputeCount(); got == 0 || got > len(net.Nodes) {
			t.Fatalf("%v: the sparse round computed %d node-images, want one image's cone", kind, got)
		}
		other := qIn(49, 4, 3, 16, 16, fixed.Int16)
		for _, inj := range []Injector{nil, every} {
			if !equalQ(net.ForwardCtx(ctx, other, inj), net.ForwardCtx(net.NewExecContext(), other, inj)) {
				t.Errorf("%v: ForwardCtx after a sparse ForwardDelta diverges from a fresh context", kind)
			}
			net.ForwardDelta(ctx, plane, nil, sparse)
		}
	}
}

// TestForwardDeltaWrongContext: the context-network binding panic applies to
// the delta path too, and so does the plane's.
func TestForwardDeltaWrongContext(t *testing.T) {
	a := buildTiny(Direct, 1, fixed.Int16)
	b := buildTiny(Direct, 2, fixed.Int16)
	in := qIn(1, 1, 3, 16, 16, fixed.Int16)
	planeA, planeB := a.CapturePlane(a.NewExecContext(), in), b.CapturePlane(b.NewExecContext(), in)
	for name, call := range map[string]func(){
		"context": func() { a.ForwardDelta(b.NewExecContext(), planeA, nil, nil) },
		"plane":   func() { a.ForwardDelta(a.NewExecContext(), planeB, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ForwardDelta accepted a foreign %s", name)
				}
			}()
			call()
		}()
	}
}

// contexts returns n fresh contexts on net.
func contexts(net *Network, n int) []*ExecContext {
	ctxs := make([]*ExecContext, n)
	for k := range ctxs {
		ctxs[k] = net.NewExecContext()
	}
	return ctxs
}

// TestCaptureSplitMatchesCapturePlane: a plane assembled from sub-batch
// passes over contiguous image ranges equals the one-pass capture node for
// node — shape, format and bytes — on the direct engine and both winograd
// tiles (residual add, concat, DWM, average pooling), for batches of 1, 5,
// 7 and 24 images split every way from one part to N+1 (one more part than
// images runs N), and PredictSplit gives the plane's predictions.
func TestCaptureSplitMatchesCapturePlane(t *testing.T) {
	for _, e := range []struct {
		kind EngineKind
		tile *winograd.Tile
	}{{Direct, winograd.F2}, {Winograd, winograd.F2}, {Winograd, winograd.F4}} {
		net := buildDelta(e.kind, e.tile)
		for _, images := range []int{1, 5, 7, 24} {
			in := qIn(61, images, 3, 16, 16, fixed.Int16)
			want := net.CapturePlane(net.NewExecContext(), in)
			golden := Argmax(want.Output())
			for parts := 1; parts <= images+1; parts++ {
				got := net.CaptureSplit(in, contexts(net, parts))
				for i := range net.Nodes {
					a, b := got.Act(i), want.Act(i)
					if a.Shape != b.Shape || a.Fmt != b.Fmt || !slices.Equal(a.Data, b.Data) {
						t.Fatalf("%v/%s, %d images in %d parts: node %s differs from the one-pass capture",
							e.kind, e.tile.Name, images, parts, net.Nodes[i].Name)
					}
				}
				if p := net.PredictSplit(in, contexts(net, parts)); !slices.Equal(p, golden) {
					t.Fatalf("%v/%s, %d images in %d parts: predictions %v, want %v", e.kind, e.tile.Name, images, parts, p, golden)
				}
			}
		}
	}
}
