package winograd

import (
	"encoding/binary"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Event segments of a fuzzed event, in census order.
const (
	segMul = iota
	segIT
	segCA
	segOT
)

// fuzzEvent encodes one event for FuzzTileReplay: segment, operand selector
// (0, 1, or 2 for ResultReg), whether to reuse the previous event's op, the
// index within the segment (taken modulo its span) and the flipped bit.
func fuzzEvent(seg, operand int, repeat bool, idx uint16, bit uint8) []byte {
	b := []byte{byte(seg | operand<<2), 0, 0, bit}
	if repeat {
		b[0] |= 0x20
	}
	binary.LittleEndian.PutUint16(b[1:3], idx)
	return b
}

// fuzzMaxEvents bounds the events one input decodes to. It lies above
// fault.Cursor's radix-sort threshold, so dense inputs reach that path.
const fuzzMaxEvents = 512

// decodeFuzzEvents turns 4-byte records into at most fuzzMaxEvents events
// spread over the four core segments of p's census for input shape in.
func decodeFuzzEvents(data []byte, p *Params, in tensor.Shape) []fault.Event {
	out := p.OutShape(in)
	tilesY, tilesX := p.tileGrid(out)
	ntTotal := int64(in.N) * int64(tilesY) * int64(tilesX)
	itPer, caPer, otPer := p.segments()
	spans := [4]int64{p.Census(in).Mul, ntTotal * itPer, ntTotal * caPer, ntTotal * otPer}
	var evs []fault.Event
	for ; len(data) >= 4 && len(evs) < fuzzMaxEvents; data = data[4:] {
		ev := fault.Event{Class: fault.OpAdd, Bit: data[3] % 32, Operand: data[0] >> 2 % 3}
		if ev.Operand == 2 {
			ev.Operand = fault.ResultReg
		}
		if data[0]&0x20 != 0 && len(evs) > 0 {
			prev := evs[len(evs)-1]
			ev.Class, ev.Op = prev.Class, prev.Op
			evs = append(evs, ev)
			continue
		}
		seg := int(data[0] % 4)
		if spans[seg] == 0 {
			seg = segMul // one input channel has no channel accumulation
		}
		ev.Op = int64(binary.LittleEndian.Uint16(data[1:3])) % spans[seg]
		for s := segIT; s < seg; s++ {
			ev.Op += spans[s]
		}
		if seg == segMul {
			ev.Class = fault.OpMul
		}
		evs = append(evs, ev)
	}
	return evs
}

// FuzzTileReplay decodes one stride-1 winograd core (F2 or F4, 1–8 input and
// output channels, batch 1–2, input up to 12x12) and up to 512 events over
// its mul, input-transform, channel-accumulation and output-transform
// segments, with repeated ops and operand 0, operand 1 and result flips. It
// requires forwardAcc under both backends, on one recycled scratch and
// cursor, to equal the whole-tile reference replay of every tile bit for bit.
func FuzzTileReplay(f *testing.F) {
	var dense []byte
	for i := 0; i < 64; i++ {
		// A stuck-PE-like tile: result flips of one bit in many products of
		// tile 0, with some products hit twice.
		dense = append(dense, fuzzEvent(segMul, 2, i%8 == 7, uint16(i*13), 18)...)
	}
	// f4, inC, outC, n, h, w, seed, events
	for _, f4 := range []bool{false, true} {
		f.Add(f4, uint8(2), uint8(3), uint8(1), uint8(8), uint8(7), uint64(1), fuzzEvent(segMul, 0, false, 77, 9))
		f.Add(f4, uint8(3), uint8(2), uint8(2), uint8(7), uint8(9), uint64(2),
			append(fuzzEvent(segIT, 1, false, 300, 12), fuzzEvent(segIT, 2, true, 0, 20)...))
		f.Add(f4, uint8(4), uint8(4), uint8(1), uint8(12), uint8(12), uint64(3),
			append(fuzzEvent(segCA, 2, false, 1000, 25), fuzzEvent(segMul, 1, false, 1000, 3)...))
		f.Add(f4, uint8(1), uint8(5), uint8(1), uint8(9), uint8(6), uint64(4), fuzzEvent(segOT, 0, false, 55, 7))
		// All four segments in tile 0, on sites that share V[0][0]: the
		// replayed chain (0, 0) must read the replayed input transform.
		var mixed []byte
		for seg := segMul; seg <= segOT; seg++ {
			mixed = append(mixed, fuzzEvent(seg, 2, false, 0, 24)...)
		}
		f.Add(f4, uint8(2), uint8(2), uint8(1), uint8(6), uint8(6), uint64(5), mixed)
	}
	f.Add(false, uint8(8), uint8(8), uint8(1), uint8(4), uint8(4), uint64(6), dense)
	// 400 records, above the cursor's radix-sort threshold, over every
	// segment: half among the first sites of each segment (many events per
	// tile), half spread over the layer.
	var denser []byte
	r := rng.New(7)
	for i := 0; i < 400; i++ {
		idx := r.Intn(1 << 9)
		if i%2 == 1 {
			idx = r.Intn(1 << 16)
		}
		denser = append(denser, fuzzEvent(r.Intn(4), r.Intn(3), i%16 == 15, uint16(idx), uint8(r.Intn(32)))...)
	}
	f.Add(true, uint8(4), uint8(5), uint8(2), uint8(12), uint8(11), uint64(7), denser)
	f.Fuzz(func(t *testing.T, f4 bool, inC, outC, n, h, w uint8, seed uint64, data []byte) {
		tile := F2
		if f4 {
			tile = F4
		}
		// In-range values decode to themselves; the rest wrap into range.
		ic, oc := 1+int((inC-1)%8), 1+int((outC-1)%8)
		shape := tensor.Shape{N: 1 + int((n-1)%2), C: ic, H: 3 + int((h-3)%10), W: 3 + int((w-3)%10)}
		r := rng.New(seed)
		wt := tensor.New(tensor.Shape{N: oc, C: ic, H: 3, W: 3}).Random(r.Split(1), 0.4)
		p := NewParams(wt, tile, fixed.Int16)
		in := tensor.Quantize(tensor.New(shape).Random(r.Split(2), 1), fixed.Int16)
		evs := decodeFuzzEvents(data, p, shape)

		want, _ := referenceForwardAcc(p, in, evs)
		cs := coreScratch{Buffers: new(Buffers)}
		var cur fault.Cursor
		for _, name := range []string{"scalar", "blocked"} {
			bk, err := kernel.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p.loadCursor(&cur, shape, evs)
			got, _ := p.forwardAcc(&cs, bk, in, &cur, 0, nil)
			cur.Done()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s in %v out %d: acc[%d] = %d, reference %d (events %+v)",
						name, tile.Name, shape, oc, i, got[i], want[i], evs)
				}
			}
		}
	})
}
