package nn

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// FuzzConvCancels decodes one convolution layer from the input (kernel 1–7,
// stride 1–2, padding 0–3, bias, int8 or int16, F2 or F4, direct or
// winograd), draws result-flip or operand-flip events from fault.Sample
// within the layer's census, and requires that forwarding the list twice
// over reproduces the fault-free output bit for bit. Every flip is an
// involution, so this holds exactly when each engine's replay and event
// routing return every op — DWM units and the summation segment included —
// to its golden value.
func FuzzConvCancels(f *testing.F) {
	// k, stride, pad, size, bias, int8, F4, winograd, operand flips, seed
	f.Add(uint8(3), uint8(1), uint8(1), uint8(4), true, false, false, false, false, uint64(1)) // 3x3 direct
	f.Add(uint8(3), uint8(1), uint8(1), uint8(4), true, false, false, true, true, uint64(2))   // 3x3 F2
	f.Add(uint8(3), uint8(1), uint8(1), uint8(5), false, true, true, true, false, uint64(3))   // 3x3 F4
	f.Add(uint8(5), uint8(2), uint8(2), uint8(3), true, false, false, true, true, uint64(4))   // 5x5 stride-2 DWM
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), true, false, false, true, false, uint64(5))  // 1x1 FC
	f.Fuzz(func(t *testing.T, k, stride, pad, size uint8, bias, q8, f4, wino, operand bool, seed uint64) {
		// In-range values decode to themselves; the rest wrap into range.
		kk, s, p := 1+int((k-1)%7), 1+int((stride-1)%2), int(pad%4)
		h := max(kk-2*p, 1) + int(size%6)
		inC, outC := 1+int(seed%3), 1+int(seed/3%3)
		fm, tile, kind, sem := fixed.Int16, winograd.F2, Direct, fault.ResultFlip
		if q8 {
			fm = fixed.Int8
		}
		if f4 {
			tile = winograd.F4
		}
		if wino {
			kind = Winograd
		}
		if operand {
			sem = fault.OperandFlip
		}
		r := rng.New(seed)
		w := tensor.New(tensor.Shape{N: outC, C: inC, H: kk, W: kk}).Random(r.Split(1), 0.5)
		var b []float64
		if bias {
			b = tensor.New(tensor.Shape{N: 1, C: outC, H: 1, W: 1}).Random(r.Split(2), 0.5).Data
		}
		op := NewConv(w, b, s, p, kind, tile, fm, fm)
		ins := []*tensor.QTensor{qIn(seed, 1, inC, h, h, fm)}
		census := op.Census([]tensor.Shape{ins[0].Shape})

		// Scale the BER so a handful of events land in the layer.
		sites := census.Mul*int64(fault.SurfaceBits(sem, fault.OpMul, fm)) +
			census.Add*int64(fault.SurfaceBits(sem, fault.OpAdd, fm))
		m := fault.Model{BER: float64(1+seed%6) / float64(sites), Semantics: sem}
		evs := fault.Sample(r.Split(3), census, census, m, fm, fault.Protection{})

		golden := append([]int32(nil), op.Forward(nil, ins, nil).Data...)
		got := op.Forward(nil, ins, append(evs[:len(evs):len(evs)], evs...)).Data
		for i := range golden {
			if got[i] != golden[i] {
				t.Fatalf("%s k=%d s=%d p=%d: %d events applied twice left output %d at %d, golden %d (events %+v)",
					op.Kind(), kk, s, p, len(evs), got[i], i, golden[i], evs)
			}
		}
	})
}

// buildDelta is buildTiny's graph extended with a 5×5 stride-2 convolution
// (a DWM layer under the winograd engine) and an AvgPool.
func buildDelta(kind EngineKind, tile *winograd.Tile) *Network {
	cfg := Config{Kind: kind, Tile: tile, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 17}
	b := NewBuilder("delta", cfg, 3, 16, 16)
	x := b.ConvReLU("conv1", b.Input(), 8, 3, 1, 1)
	x = b.MaxPool("pool1", x, 2, 2, 0)
	y := b.ConvReLU("res.a", x, 8, 3, 1, 1)
	y = b.ConvNoBias("res.b", y, 8, 3, 1, 1)
	x = b.ReLU("res.relu", b.Add("res.add", x, y))
	p := b.ConvReLU("br1", x, 4, 1, 1, 0)
	q := b.ConvReLU("br3", x, 4, 3, 1, 1)
	x = b.Concat("cat", p, q)
	x = b.ConvReLU("dwm", x, 8, 5, 2, 2)
	x = b.AvgPool("avg", x, 2, 2, 0)
	x = b.GlobalAvgPool("gap", x)
	x = b.Flatten("flat", x)
	x = b.FC("fc", x, 10)
	return b.Build(x)
}

// FuzzForwardDelta decodes an engine and tile, a batch of 1–4 images (n%4)
// whose golden plane is captured in 1–4 sub-batch parts (n/4%4; parts
// beyond the images run one image each), and 1–4 rounds of per-node
// events, and requires every round of ForwardDelta on one long-lived
// context to equal ForwardCtx on a fresh context, with the golden plane's
// bytes unchanged at the end. Each 5-byte record is one
// event: the op-carrying node (in node order), flags (bit 0 add class, bit
// 1 operand flip, bit 2 second operand, bit 3 repeat — a repeated event
// cancels itself, so its image re-converges — bits 4–5 the round), the op
// as a 16-bit fraction of its class's census (image-major, so fraction k/N
// starts image k), and the bit.
//
// It then captures round 0 as a reference (CaptureRound), which must equal
// ForwardCtx node for node, and derives a second event set from it: bit j
// of differ marks op-carrying node j, whose events the set takes from the
// last round instead (bit 15: every node, so the set is the last round).
// ForwardDelta of that set against the reference, naming the marked
// nodes, must equal its ForwardCtx, and leave the reference's bytes
// unchanged.
func FuzzForwardDelta(f *testing.F) {
	// Op-carrying nodes: conv1 0, res.a 1, res.b 2, res.add 3, br1 4, br3 5,
	// dwm 6, avg 7, gap 8, fc 9.
	f.Add(false, false, uint8(1), uint8(0), []byte{0, 0x00, 0x00, 0x00, 27}, uint16(0))      // image 0 of conv1
	f.Add(true, false, uint8(2), uint8(0), []byte{9, 0x01, 0xff, 0xff, 14}, uint16(0))       // image N-1 of fc
	f.Add(true, false, uint8(3), uint8(0), []byte{6, 0x0a, 0x80, 0x00, 12}, uint16(0))       // self-cancelling pair on image 2
	f.Add(true, true, uint8(3), uint8(0), []byte{0, 0, 0x00, 0x10, 27, 0, 0, 0x40, 0x10, 27, // events on every image
		0, 0, 0x80, 0x10, 27, 0, 0, 0xc0, 0x10, 27}, uint16(0))
	f.Add(false, false, uint8(1), uint8(2), []byte{1, 0x00, 0x30, 0x00, 26, 3, 0x21, 0x70, 0x00, 12}, uint16(0)) // clean round between dirty ones
	f.Add(true, false, uint8(1), uint8(2), []byte{7, 0x07, 0x20, 0x00, 9, 6, 0x21, 0xf0, 0x00, 13}, uint16(0))
	f.Add(false, false, uint8(6), uint8(1), []byte{0, 0x00, 0x60, 0x00, 27, 9, 0x01, 0xc0, 0x00, 14}, uint16(0))                  // 3 images in 2 parts
	f.Add(true, false, uint8(11), uint8(1), []byte{6, 0x00, 0x40, 0x00, 12, 3, 0x01, 0xc0, 0x00, 9}, uint16(0))                   // 4 images in 3 parts
	f.Add(true, true, uint8(15), uint8(2), []byte{0, 0, 0x00, 0x10, 27, 5, 0x10, 0x80, 0x10, 20, 8, 1, 0xc0, 0x10, 9}, uint16(0)) // 4 images in 4 parts
	f.Add(false, false, uint8(14), uint8(0), []byte{2, 0x00, 0xb0, 0x00, 21}, uint16(0))                                          // 3 images, 4 parts: one each
	// Reference rounds. Round 0 has events at conv1 (image 1), res.b
	// (image 2), dwm (image 0) and fc (image 3) of 4; round 1 has none
	// there unless stated.
	ref := []byte{0, 0x00, 0x50, 0x00, 27, 2, 0x00, 0xa0, 0x00, 25, 6, 0x00, 0x10, 0x00, 26, 9, 0x00, 0xe0, 0x00, 20}
	f.Add(false, false, uint8(3), uint8(1), ref, uint16(1<<0))                                                          // conv1 fault-free
	f.Add(true, false, uint8(3), uint8(1), ref, uint16(1<<9))                                                           // fc fault-free
	f.Add(true, true, uint8(3), uint8(1), ref, uint16(1<<6))                                                            // dwm fault-free
	f.Add(true, false, uint8(3), uint8(1), append(slices.Clone(ref), 2, 0x10, 0x30, 0x00, 24, 4, 0x10, 0x90, 0x00, 26), // res.b moved, br1 new
		uint16(1<<2|1<<4))
	f.Add(false, false, uint8(3), uint8(1), append(slices.Clone(ref), 5, 0x10, 0x20, 0x00, 25), uint16(1<<15)) // every node differs
	nets := map[[2]bool]*Network{}
	f.Fuzz(func(t *testing.T, wino, f4 bool, n, rounds uint8, data []byte, differ uint16) {
		key := [2]bool{wino, f4}
		net := nets[key]
		if net == nil {
			kind, tile := Direct, winograd.F2
			if wino {
				kind = Winograd
			}
			if f4 {
				tile = winograd.F4
			}
			net = buildDelta(kind, tile)
			nets[key] = net
		}
		in := qIn(47, 1+int(n%4), 3, 16, 16, fixed.Int16)
		census := net.LayerCensus(in.Shape)
		var opNodes []int
		for i, c := range census {
			if c.Total() > 0 {
				opNodes = append(opNodes, i)
			}
		}
		r := 1 + int(rounds%4)
		events := make([]map[int][]fault.Event, r)
		for i := range events {
			events[i] = map[int][]fault.Event{}
		}
		for ; len(data) >= 5; data = data[5:] {
			li, flags := opNodes[int(data[0])%len(opNodes)], data[1]
			cl := fault.OpClass(flags & 1)
			if census[li].Class(cl) == 0 {
				cl ^= 1
			}
			frac := int64(data[2])<<8 | int64(data[3])
			ev := fault.Event{Class: cl, Op: frac * census[li].Class(cl) >> 16, Operand: fault.ResultReg}
			bits := fixed.Int16.Width
			if flags&2 != 0 {
				ev.Operand = flags >> 2 & 1
			} else if cl == fault.OpMul {
				bits = fixed.Int16.ProductBits()
			}
			ev.Bit = data[4] % uint8(bits)
			round := events[int(flags>>4&3)%r]
			round[li] = append(round[li], ev)
			if flags&8 != 0 {
				round[li] = append(round[li], ev)
			}
		}

		plane := net.CaptureSplit(in, contexts(net, 1+int(n/4%4)))
		snapshot := func(p *Plane) [][]int32 {
			var out [][]int32
			for i := range net.Nodes {
				out = append(out, slices.Clone(p.Act(i).Data))
			}
			return out
		}
		unchanged := func(p *Plane, want [][]int32, what string) {
			for i := range net.Nodes {
				if !slices.Equal(p.Act(i).Data, want[i]) {
					t.Fatalf("node %s: the %s changed", net.Nodes[i].Name, what)
				}
			}
		}
		golden := snapshot(plane)
		ctx := net.NewExecContext()
		for ri, evs := range events {
			inj := &mapInjector{events: evs}
			if got, want := net.ForwardDelta(ctx, plane, nil, inj), net.ForwardCtx(net.NewExecContext(), in, inj); !equalQ(got, want) {
				t.Fatalf("round %d (%d images, events %v): ForwardDelta diverges from ForwardCtx", ri, in.Shape.N, evs)
			}
		}
		unchanged(plane, golden, "golden plane")

		refInj := &mapInjector{events: events[0]}
		net.ForwardDelta(ctx, plane, nil, refInj)
		ref := net.CaptureRound(ctx, plane)
		full := net.NewExecContext()
		net.ForwardCtx(full, in, refInj)
		for i := range net.Nodes {
			if !slices.Equal(ref.Act(i).Data, full.acts[i].Data) {
				t.Fatalf("node %s of the captured round 0 (events %v) differs from ForwardCtx", net.Nodes[i].Name, events[0])
			}
		}
		before := snapshot(ref)
		second, marked := maps.Clone(events[0]), make([]bool, len(net.Nodes))
		if differ&(1<<15) != 0 {
			second, marked = events[r-1], nil
		} else {
			for j, li := range opNodes {
				if differ&(1<<j) != 0 {
					second[li], marked[li] = events[r-1][li], true
				}
			}
		}
		inj := &mapInjector{events: second}
		if got, want := net.ForwardDelta(ctx, ref, marked, inj), net.ForwardCtx(net.NewExecContext(), in, inj); !equalQ(got, want) {
			t.Fatalf("against round 0 (%v), events %v differing at %v: ForwardDelta diverges from ForwardCtx", events[0], second, marked)
		}
		unchanged(ref, before, "reference")
		unchanged(plane, golden, "golden plane")
	})
}
