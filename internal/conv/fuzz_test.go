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

// decodeFuzzEvents turns 4-byte records into at most 64 events over the
// census c. A record of a class with no ops becomes a product event.
func decodeFuzzEvents(data []byte, c fault.Census) []fault.Event {
	var evs []fault.Event
	for ; len(data) >= 4 && len(evs) < 64; data = data[4:] {
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

// FuzzDirectReplay decodes one direct convolution layer (kernel 1–5, stride
// 1–2, padding 0–2, bias on or off, 1–6 input and output channels, batch
// 1–2, input up to 10x10) and up to 64 events over its product and add
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
	f.Fuzz(func(t *testing.T, k, stride, pad, inC, outC, n, h, w uint8, bias bool, seed uint64, data []byte) {
		// In-range values decode to themselves; the rest wrap into range.
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
		p := NewParams(wt, b, s, pd, fixed.Int16, fixed.Int16)
		in := tensor.Quantize(tensor.New(shape).Random(r.Split(3), 1), fixed.Int16)
		evs := decodeFuzzEvents(data, p.Census(shape))

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
						name, kk, s, pd, shape, wt.Shape.N, i, got.Data[i], want.Data[i], evs)
				}
			}
		}
	})
}
