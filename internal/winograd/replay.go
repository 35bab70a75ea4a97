package winograd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// A faulty tile runs the same fault-free backend path as a clean tile and
// then replays, on the census-ordered scalar walk, only the sites its events
// touch:
//
//   - the input transform of each input channel with an IT event, before the
//     Hadamard stage, so its faulty V row feeds both the backend Hadamard and
//     every replayed chain;
//   - each Hadamard chain (o, pos) with a mul or CA event: the InC products
//     V[c,pos]·U[o,c,pos] and InC−1 channel-accumulation adds of one output
//     channel at one transform position;
//   - the output transform of each output channel with an OT event, over the
//     chain-replayed Hadamard sums.
//
// This is exact: a replayed site overwrites the backend's value with the
// census walk's, and every value the backend produced from a faulty V row is
// the same int64 sum the walk would form (int64 + and × form a ring, the
// backend seam's own argument). Chains are independent: chain (o, pos) reads
// only V[·,pos] and U[o,·,pos]. Op order and the fault.Mul/fault.Add rule are
// those of the census↔replay contract in core.go.

// siteLayout keys every event of one pass by the site that replays it:
// tile nt owns keys [nt·span, (nt+1)·span), laid out as the tile's itPer
// input-transform adds (channel-major, in add order), then its Hadamard
// chains (chain o·T²+pos owns 2·InC keys: operation c's product at 2c, its
// accumulation add at 2c+1), then its output-transform adds from otOff on
// (channel-major, in add order). A stable key sort therefore lines events up
// in exactly the order the tile walk replays them.
type siteLayout struct {
	ntTotal, t2, inC int64
	itAdds, otAdds   int64 // adds of one input / output transform
	mulPer           int64 // census muls per tile
	itPer, caPer     int64 // census IT / CA adds per tile
	itTotal, caTotal int64 // census adds of the IT / CA segments
	otOff            int64 // site-key offset of the output transforms
	span             int64 // site keys per tile
}

func (p *Params) siteLayout(ntTotal int64) siteLayout {
	t2, inC, outC := int64(p.Tile.MulsPerTileChannel()), int64(p.InC), int64(p.OutC)
	s := siteLayout{
		ntTotal: ntTotal, t2: t2, inC: inC,
		itAdds: int64(p.Tile.InputAdds()),
		otAdds: int64(p.Tile.OutputAdds()),
		mulPer: outC * inC * t2,
		caPer:  outC * (inC - 1) * t2,
	}
	s.itPer = inC * s.itAdds
	s.itTotal, s.caTotal = ntTotal*s.itPer, ntTotal*s.caPer
	s.otOff = s.itPer + outC*t2*2*inC
	s.span = s.otOff + outC*s.otAdds
	return s
}

// key decodes a class-cl census index op (the contract in core.go) into its
// site key. An event beyond the census panics: no tile would replay it.
func (s *siteLayout) key(cl fault.OpClass, op int64) int64 {
	nt, key := s.site(cl, op)
	if nt >= s.ntTotal {
		panic(fmt.Sprintf("winograd: %v event index %d beyond census", cl, op))
	}
	return nt*s.span + key
}

// site decodes a class-cl census index op into its tile nt and its key
// within the tile; nt reaches ntTotal for an op beyond the census.
func (s *siteLayout) site(cl fault.OpClass, op int64) (nt, key int64) {
	switch {
	case cl == fault.OpMul:
		// local = (o·C + c)·T² + pos
		local := op % s.mulPer
		oc, pos := local/s.t2, local%s.t2
		return op / s.mulPer, s.itPer + ((oc/s.inC*s.t2+pos)*s.inC+oc%s.inC)*2
	case op < s.itTotal:
		return op / s.itPer, op % s.itPer
	case op < s.itTotal+s.caTotal:
		// local = (o·(C−1) + c−1)·T² + pos
		op -= s.itTotal
		local := op % s.caPer
		oc, pos := local/s.t2, local%s.t2
		o, c := oc/(s.inC-1), oc%(s.inC-1)+1
		return op / s.caPer, s.itPer + ((o*s.t2+pos)*s.inC+c)*2 + 1
	default:
		op -= s.itTotal + s.caTotal
		otPer := s.span - s.otOff
		return op / otPer, s.otOff + op%otPer
	}
}

// loadCursor keys the events of one core pass over in by replay site and
// sorts them, ready for forwardAcc at base key 0.
func (p *Params) loadCursor(cur *fault.Cursor, in tensor.Shape, events []fault.Event) {
	sites := p.siteLayout(p.tiles(in))
	cur.Reset()
	for _, ev := range events {
		cur.Push(sites.key(ev.Class, ev.Op), ev)
	}
	cur.Sort()
}

// matTransformReplay is the scalar twin of matTransform that walks the adds
// in census order: add step s applies the cursor's events keyed key+s.
// scratch holds the rows x t intermediate.
func matTransformReplay(mat [][]int64, rows, t int, in, out, scratch []int64, evs *fault.Cursor, key int64) {
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
				acc = fault.Add(acc, term, evs.At(key))
				key++
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
				acc = fault.Add(acc, term, evs.At(key))
				key++
			}
			out[r*rows+c2] = acc
		}
	}
}

// replayChain recomputes Hadamard chain (o, pos) of a tile in census op
// order from the tile's transformed input v ([c][T²]), applying the cursor's
// events from the chain's first site key on. Operand 0 of a product is the
// transformed activation, operand 1 the transformed weight; operand 0 of an
// accumulation add is the running sum.
func (p *Params) replayChain(evs *fault.Cursor, v []int64, o, pos, t2 int, key int64) int64 {
	u := p.UT[(pos*p.OutC+o)*p.InC:]
	sum := fault.Mul(v[pos], int64(u[0]), evs.At(key))
	for c := 1; c < p.InC; c++ {
		k := key + 2*int64(c)
		prod := fault.Mul(v[c*t2+pos], int64(u[c]), evs.At(k))
		sum = fault.Add(sum, prod, evs.At(k+1))
	}
	return sum
}
