package conv

import (
	"encoding/binary"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// fuzzEvent encodes one event for FuzzDirectReplay: class, operand selector
// (0, 1, or 2 for ResultReg), whether to reuse the previous event's op, the
// index (scaled onto the class's census) and the flipped bit.
func fuzzEvent(cl fault.OpClass, operand int, repeat bool, idx uint16, bit uint8) []byte {
	b := []byte{byte(cl) | byte(operand)<<2, 0, 0, bit}
	if repeat {
		b[0] |= 0x20
	}
	binary.LittleEndian.PutUint16(b[1:3], idx)
	return b
}

// fuzzAt encodes a result flip of bit on the class-cl op op of a layer
// whose census is c: with at most 2^16 ops in the class, the scaled index
// decodes back to op exactly.
func fuzzAt(cl fault.OpClass, op int64, c fault.Census, bit uint8) []byte {
	return fuzzEvent(cl, 2, false, uint16((op<<16+c.Class(cl)-1)/c.Class(cl)), bit)
}

// fuzzMaxEvents bounds the events one input decodes to. It lies above
// fault.Cursor's radix-sort threshold, so dense inputs reach that path.
const fuzzMaxEvents = 512

// decodeFuzzEvents turns 4-byte records into at most fuzzMaxEvents events
// over the census c. A record of a class with no ops becomes a product
// event.
func decodeFuzzEvents(data []byte, c fault.Census) []fault.Event {
	var evs []fault.Event
	for ; len(data) >= 4 && len(evs) < fuzzMaxEvents; data = data[4:] {
		ev := fault.Event{Class: fault.OpClass(data[0] & 1), Bit: data[3] % 32, Operand: data[0] >> 2 % 3}
		if ev.Operand == 2 {
			ev.Operand = fault.ResultReg
		}
		if data[0]&0x20 != 0 && len(evs) > 0 {
			prev := evs[len(evs)-1]
			ev.Class, ev.Op = prev.Class, prev.Op
			evs = append(evs, ev)
			continue
		}
		if c.Class(ev.Class) == 0 {
			ev.Class = fault.OpMul
		}
		ev.Op = int64(binary.LittleEndian.Uint16(data[1:3])) * c.Class(ev.Class) >> 16
		evs = append(evs, ev)
	}
	return evs
}

// fuzzLayer decodes FuzzDirectReplay's geometry into a layer and its input.
// In-range kernel, stride, padding, channel and batch values decode to
// themselves and others wrap into range; the plane side is lo + h mod
// (11 − lo), lo the smallest side the padded kernel fits.
func fuzzLayer(k, stride, pad, inC, outC, n, h, w uint8, bias bool, seed uint64) (*Params, *tensor.QTensor) {
	kk, s, pd := 1+int((k-1)%5), 1+int((stride-1)%2), int(pad%3)
	lo := max(kk-2*pd, 1)
	shape := tensor.Shape{N: 1 + int((n-1)%2), C: 1 + int((inC-1)%6),
		H: lo + int(h)%(11-lo), W: lo + int(w)%(11-lo)}
	r := rng.New(seed)
	wt := tensor.New(tensor.Shape{N: 1 + int((outC-1)%6), C: shape.C, H: kk, W: kk}).Random(r.Split(1), 0.5)
	var b []float64
	if bias {
		b = tensor.New(tensor.Shape{N: 1, C: wt.Shape.N, H: 1, W: 1}).Random(r.Split(2), 0.5).Data
	}
	return NewParams(wt, b, s, pd, fixed.Int16, fixed.Int16),
		tensor.Quantize(tensor.New(shape).Random(r.Split(3), 1), fixed.Int16)
}

// FuzzDirectReplay decodes one direct convolution layer (kernel 1–5, stride
// 1–2, padding 0–2, bias on or off, 1–6 input and output channels, batch
// 1–2, input up to 10x10) and up to 512 events over its product and add
// census, with repeated ops and operand 0, operand 1 and result flips. It
// requires ForwardFaultyCtx under both backends, on one recycled Scratch, to
// equal the reference walk of every output bit for bit.
func FuzzDirectReplay(f *testing.F) {
	var dense []byte
	for i := 0; i < 64; i++ {
		// Products and adds of the first outputs, some hit twice.
		dense = append(dense, fuzzEvent(fault.OpClass(i%2), 2, i%8 == 7, uint16(i*97), 18)...)
	}
	// k, stride, pad, inC, outC, n, h, w, bias, seed, events
	f.Add(uint8(3), uint8(1), uint8(1), uint8(2), uint8(3), uint8(1), uint8(8), uint8(7), true, uint64(1),
		fuzzEvent(fault.OpMul, 0, false, 4000, 9))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(3), uint8(2), uint8(2), uint8(9), uint8(10), true, uint64(2),
		append(fuzzEvent(fault.OpAdd, 1, false, 65535, 12), fuzzEvent(fault.OpAdd, 2, true, 0, 20)...))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(6), uint8(5), uint8(2), uint8(1), uint8(1), true, uint64(3),
		append(fuzzEvent(fault.OpMul, 2, false, 30000, 25), fuzzEvent(fault.OpAdd, 0, false, 50000, 3)...))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(4), uint8(1), uint8(6), uint8(6), false, uint64(4),
		append(fuzzEvent(fault.OpAdd, 2, false, 100, 7), fuzzEvent(fault.OpMul, 1, false, 9000, 5)...))
	f.Add(uint8(3), uint8(2), uint8(0), uint8(6), uint8(6), uint8(1), uint8(5), uint8(5), false, uint64(5), dense)
	// 1x1 layers: stride 1 over a 5x6 plane and two images (each output
	// plane one kernel row), then stride 2 (row by row), then pad 1 (the
	// output plane is the padded plane, again one row).
	f.Add(uint8(1), uint8(1), uint8(0), uint8(3), uint8(4), uint8(2), uint8(4), uint8(5), true, uint64(6),
		append(fuzzEvent(fault.OpMul, 0, false, 40000, 14), fuzzEvent(fault.OpAdd, 2, false, 60000, 22)...))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(4), uint8(3), uint8(1), uint8(6), uint8(8), true, uint64(7),
		fuzzEvent(fault.OpMul, 1, false, 20000, 11))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(3), uint8(2), uint8(3), uint8(4), true, uint64(8),
		fuzzEvent(fault.OpAdd, 0, false, 30000, 17))
	// 3x3 stride-1 pad-1 layers on 1x1, 2x2 and 3x3 planes: rows narrower
	// than one 4-wide block.
	for hw := uint8(0); hw < 3; hw++ {
		f.Add(uint8(3), uint8(1), uint8(1), uint8(5), uint8(3), uint8(2), hw, hw, true, uint64(9+hw),
			fuzzEvent(fault.OpMul, 2, false, 50000, 19))
	}
	// Events on exact steps of one output's chain, where a replay that
	// walks clean runs between events has its edges: product 0, the last
	// chain add (add step K-2), the bias add (add step K-1), and a product
	// together with the add that merges it. One seed each on a 3x3 layer
	// (K = 18), then all four on a 1x1 layer (K = 6), whose clean runs step
	// across channels.
	p, in := fuzzLayer(3, 1, 1, 2, 3, 1, 5, 5, true, 13)
	c := p.Census(in.Shape)
	for _, evs := range [][]byte{
		fuzzAt(fault.OpMul, 0, c, 21),
		fuzzAt(fault.OpAdd, 5*18+16, c, 9),
		fuzzAt(fault.OpAdd, 9*18+17, c, 13),
		append(fuzzAt(fault.OpMul, 12*18+7, c, 20), fuzzAt(fault.OpAdd, 12*18+6, c, 4)...),
	} {
		f.Add(uint8(3), uint8(1), uint8(1), uint8(2), uint8(3), uint8(1), uint8(5), uint8(5), true, uint64(13), evs)
	}
	p, in = fuzzLayer(1, 1, 0, 6, 4, 2, 4, 5, true, 14)
	c = p.Census(in.Shape)
	var edges []byte
	for _, ev := range []struct {
		cl fault.OpClass
		op int64
	}{{fault.OpMul, 0}, {fault.OpAdd, 3*6 + 4}, {fault.OpAdd, 3*6 + 5}, {fault.OpMul, 7*6 + 2}, {fault.OpAdd, 7*6 + 1}} {
		edges = append(edges, fuzzAt(ev.cl, ev.op, c, uint8(10+ev.op%16))...)
	}
	f.Add(uint8(1), uint8(1), uint8(0), uint8(6), uint8(4), uint8(2), uint8(4), uint8(5), true, uint64(14), edges)
	// 300 records, above the cursor's radix-sort threshold: every other one
	// among the first outputs (several events per chain), the rest spread
	// over the layer.
	var denser []byte
	r := rng.New(15)
	for i := 0; i < 300; i++ {
		idx := r.Intn(1 << 11)
		if i%2 == 1 {
			idx = r.Intn(1 << 16)
		}
		denser = append(denser, fuzzEvent(fault.OpClass(r.Intn(2)), r.Intn(3), i%16 == 15, uint16(idx), uint8(r.Intn(32)))...)
	}
	f.Add(uint8(3), uint8(1), uint8(1), uint8(6), uint8(6), uint8(2), uint8(9), uint8(9), true, uint64(15), denser)
	f.Fuzz(func(t *testing.T, k, stride, pad, inC, outC, n, h, w uint8, bias bool, seed uint64, data []byte) {
		p, in := fuzzLayer(k, stride, pad, inC, outC, n, h, w, bias, seed)
		evs := decodeFuzzEvents(data, p.Census(in.Shape))

		want := referenceForward(in, p, evs)
		var sc Scratch
		for _, name := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Backend = bk
			got := ForwardFaultyCtx(&sc, in, p, evs, nil)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s k=%d s=%d p=%d in %v out %d: out[%d] = %d, reference %d (events %+v)",
						name, p.Weight.Shape.H, p.Stride, p.Pad, in.Shape, p.Weight.Shape.N, i, got.Data[i], want.Data[i], evs)
				}
			}
		}
	})
}
