package winograd

import (
	"repro/internal/fault"
	"repro/internal/tensor"
)

// This file keeps the whole-tile fault replay that per-chain replay
// replaced, as the oracle FuzzTileReplay compares forwardAcc against: every
// tile is recomputed op by op in census order, each op looking up its events
// in per-segment maps. It shares no replay code with the production path.

// referenceForwardAcc is ForwardAcc computed by replayTile on every tile,
// faulty or not.
func referenceForwardAcc(p *Params, in *tensor.QTensor, events []fault.Event) ([]int64, tensor.Shape) {
	outShape := p.OutShape(in.Shape)
	tilesY, tilesX := p.tileGrid(outShape)
	ntTotal := int64(in.Shape.N) * int64(tilesY) * int64(tilesX)
	m, T := p.Tile.M, p.Tile.T()
	ext := tensor.NewQ(tensor.Shape{N: in.Shape.N, C: in.Shape.C, H: (tilesY-1)*m + T, W: (tilesX-1)*m + T}, in.Fmt)
	for n := 0; n < in.Shape.N; n++ {
		for c := 0; c < in.Shape.C; c++ {
			for y := 0; y < in.Shape.H; y++ {
				for x := 0; x < in.Shape.W; x++ {
					ext.Data[ext.Shape.Index(n, c, y, x)] = in.At(n, c, y, x)
				}
			}
		}
	}
	byTile := map[int64][]fault.Event{}
	for _, ev := range events {
		nt := p.tileOfEvent(ev, ntTotal)
		byTile[nt] = append(byTile[nt], ev)
	}
	acc := make([]int64, outShape.Elems())
	for n := 0; n < in.Shape.N; n++ {
		for ty := 0; ty < tilesY; ty++ {
			for tx := 0; tx < tilesX; tx++ {
				nt := (int64(n)*int64(tilesY)+int64(ty))*int64(tilesX) + int64(tx)
				p.replayTile(ext, acc, outShape, n, ty, tx, nt, ntTotal, byTile[nt])
			}
		}
	}
	return acc, outShape
}

// segments returns the per-(nt) spans used to route add events.
func (p *Params) segments() (itPer, caPer, otPer int64) {
	t2 := int64(p.Tile.MulsPerTileChannel())
	itPer = int64(p.InC) * int64(p.Tile.InputAdds())
	caPer = int64(p.OutC) * int64(p.InC-1) * t2
	otPer = int64(p.OutC) * int64(p.Tile.OutputAdds())
	return
}

// tileOfEvent maps an event to its global tile index nt.
func (p *Params) tileOfEvent(ev fault.Event, ntTotal int64) int64 {
	t2 := int64(p.Tile.MulsPerTileChannel())
	if ev.Class == fault.OpMul {
		return ev.Op / (int64(p.OutC) * int64(p.InC) * t2)
	}
	itPer, caPer, otPer := p.segments()
	itTotal := ntTotal * itPer
	caTotal := ntTotal * caPer
	switch {
	case ev.Op < itTotal:
		return ev.Op / itPer
	case ev.Op < itTotal+caTotal:
		return (ev.Op - itTotal) / caPer
	default:
		return (ev.Op - itTotal - caTotal) / otPer
	}
}

// matTransformReplayMap is the scalar twin of matTransform that walks the adds
// in census order, consuming steps from evs (keyed by absolute add index).
// step is the absolute index of the next add; the final value is returned.
func matTransformReplayMap(mat [][]int64, rows, t int, in, out []int64, evs map[int64][]fault.Event, step int64) int64 {
	scratch := make([]int64, rows*t)
	for r := 0; r < rows; r++ {
		row := mat[r]
		for col := 0; col < t; col++ {
			var acc int64
			first := true
			for k := 0; k < t; k++ {
				c := row[k]
				if c == 0 {
					continue
				}
				term := c * in[k*t+col]
				if first {
					acc = term
					first = false
					continue
				}
				acc = fault.Add(acc, term, evs[step])
				step++
			}
			scratch[r*t+col] = acc
		}
	}
	for r := 0; r < rows; r++ {
		for c2 := 0; c2 < rows; c2++ {
			row := mat[c2]
			var acc int64
			first := true
			for k := 0; k < t; k++ {
				c := row[k]
				if c == 0 {
					continue
				}
				term := c * scratch[r*t+k]
				if first {
					acc = term
					first = false
					continue
				}
				acc = fault.Add(acc, term, evs[step])
				step++
			}
			out[r*rows+c2] = acc
		}
	}
	return step
}

// replayTile recomputes one tile in census op order with its fault events
// applied, writing accumulator-domain outputs.
func (p *Params) replayTile(ext *tensor.QTensor, acc []int64, outShape tensor.Shape, n, ty, tx int, nt, ntTotal int64, evs []fault.Event) {
	t, m, T := p.Tile, p.Tile.M, p.Tile.T()
	t2 := T * T
	itPer, caPer, otPer := p.segments()
	itTotal := ntTotal * itPer
	caTotal := ntTotal * caPer
	mulPerTile := int64(p.OutC) * int64(p.InC) * int64(t2)

	// Partition events into per-segment maps keyed by tile-local index.
	mulEvs := map[int64][]fault.Event{}
	itEvs := map[int64][]fault.Event{}
	caEvs := map[int64][]fault.Event{}
	otEvs := map[int64][]fault.Event{}
	for _, ev := range evs {
		if ev.Class == fault.OpMul {
			mulEvs[ev.Op-nt*mulPerTile] = append(mulEvs[ev.Op-nt*mulPerTile], ev)
			continue
		}
		switch {
		case ev.Op < itTotal:
			local := ev.Op - nt*itPer
			itEvs[local] = append(itEvs[local], ev)
		case ev.Op < itTotal+caTotal:
			local := ev.Op - itTotal - nt*caPer
			caEvs[local] = append(caEvs[local], ev)
		default:
			local := ev.Op - itTotal - caTotal - nt*otPer
			otEvs[local] = append(otEvs[local], ev)
		}
	}

	// Input transform with IT faults, channel-major census order.
	d := make([]int64, t2)
	v := make([]int64, p.InC*t2)
	for c := 0; c < p.InC; c++ {
		for i := 0; i < T; i++ {
			base := ext.Shape.Index(n, c, ty*m+i, tx*m)
			for j := 0; j < T; j++ {
				d[i*T+j] = int64(ext.Data[base+j])
			}
		}
		matTransformReplayMap(t.BT, T, T, d, v[c*t2:(c+1)*t2], itEvs, int64(c)*int64(t.InputAdds()))
	}

	msum := make([]int64, t2)
	y := make([]int64, m*m)
	for o := 0; o < p.OutC; o++ {
		uBase := o * p.InC * t2
		mulBase := int64(o) * int64(p.InC) * int64(t2)
		caBase := int64(o) * int64(p.InC-1) * int64(t2)
		for i := 0; i < t2; i++ {
			msum[i] = p.hadamard(uBase, 0, i, t2, v, mulEvs[mulBase+int64(i)])
		}
		for c := 1; c < p.InC; c++ {
			for i := 0; i < t2; i++ {
				prod := p.hadamard(uBase, c, i, t2, v, mulEvs[mulBase+int64(c*t2+i)])
				msum[i] = fault.Add(msum[i], prod, caEvs[caBase+int64((c-1)*t2+i)])
			}
		}
		matTransformReplayMap(t.AT, m, T, msum, y, otEvs, int64(o)*int64(t.OutputAdds()))
		for i := 0; i < m; i++ {
			oy := ty*m + i
			if oy >= outShape.H {
				continue
			}
			rowBase := outShape.Index(n, o, oy, 0)
			for j := 0; j < m; j++ {
				ox := tx*m + j
				if ox >= outShape.W {
					continue
				}
				acc[rowBase+ox] = y[i*m+j]
			}
		}
	}
}

// hadamard computes one transform-domain product U[oc,c,pos] * V[c,pos] with
// any fault events applied: operand 0 is the transformed activation, operand
// 1 the transformed weight, both modelled as WBits-wide registers; result
// flips hit the 2·WBits product register. uBase is oc·InC·T², the start of
// output channel oc in the [oc][c][pos] layout; Params stores U
// position-major, so the weight is read from UT.
func (p *Params) hadamard(uBase, c, pos, t2 int, v []int64, evs []fault.Event) int64 {
	oc := uBase / (p.InC * t2)
	return fault.Mul(v[c*t2+pos], int64(p.UT[(pos*p.OutC+oc)*p.InC+c]), evs)
}
