package conv

import (
	"repro/internal/fault"
	"repro/internal/tensor"
)

// This file keeps the direct engine's replay semantics as a reference for
// FuzzDirectReplay: every output's whole MAC chain is recomputed op by op in
// census order, and each op looks up its events, in list order, in a map
// from (class, op index). It shares no replay code with the production path.

// referenceForward computes the layer with events applied, the slow way.
func referenceForward(in *tensor.QTensor, p *Params, events []fault.Event) *tensor.QTensor {
	padded := in.Pad2D(p.Pad)
	outShape := p.OutShape(in.Shape)
	out := tensor.NewQ(outShape, p.OutFmt)
	bias := p.accumBias(in.Fmt)
	shift := in.Fmt.Frac + p.Weight.Fmt.Frac - p.OutFmt.Frac
	ws := p.Weight.Shape
	k := int64(ws.C * ws.H * ws.W)
	adds := k - 1
	if bias != nil {
		adds++
	}
	at := make(map[[2]int64][]fault.Event)
	for _, ev := range events {
		key := [2]int64{int64(ev.Class), ev.Op}
		at[key] = append(at[key], ev)
	}
	eventsAt := func(cl fault.OpClass, op int64) []fault.Event { return at[[2]int64{int64(cl), op}] }
	for flat := range out.Data {
		ox, oy := flat%outShape.W, flat/outShape.W%outShape.H
		o, n := flat/(outShape.W*outShape.H)%outShape.C, flat/(outShape.W*outShape.H*outShape.C)
		mul, add := int64(flat)*k, int64(flat)*adds
		var acc int64
		for c := 0; c < ws.C; c++ {
			for ky := 0; ky < ws.H; ky++ {
				for kx := 0; kx < ws.W; kx++ {
					a := int64(padded.At(n, c, oy*p.Stride+ky, ox*p.Stride+kx))
					prod := fault.Mul(a, int64(p.Weight.At(o, c, ky, kx)), eventsAt(fault.OpMul, mul))
					if mul == int64(flat)*k {
						acc = prod
					} else {
						acc = fault.Add(acc, prod, eventsAt(fault.OpAdd, add))
						add++
					}
					mul++
				}
			}
		}
		if bias != nil {
			acc = fault.Add(acc, bias[o], eventsAt(fault.OpAdd, add))
		}
		out.Data[flat] = p.OutFmt.RequantizeShift(acc, shift)
	}
	return out
}
