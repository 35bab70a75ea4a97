package nn

import (
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
