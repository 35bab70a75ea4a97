package nn

import (
	"fmt"

	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// Scratch is the per-node reusable buffer arena threaded through Op.Forward.
// Each node of an ExecContext owns one Scratch; because a node's output
// geometry is fixed for a given input batch shape, every buffer is allocated
// on the first pass and recycled afterwards, making steady-state forward
// passes allocation-free (see DESIGN.md, memory model).
//
// A nil *Scratch is valid everywhere and means "allocate fresh buffers":
// one-shot callers (tests, Network.Forward via a throwaway context) pay the
// allocations the arena would otherwise amortize.
type Scratch struct {
	out  *tensor.QTensor   // recycled output of simple (non-conv) ops
	conv *conv.Scratch     // direct-convolution arena
	wg   *winograd.Scratch // winograd-layer arena
	wgb  *winograd.Buffers // the context's int64 working set, shared by its winograd layers
	kb   kernel.Backend    // compute backend stamped onto the engine arenas
	cur  fault.Cursor      // events of an adding op, keyed by op index
}

// Output returns a recycled output tensor of the given shape and format.
// Contents are unspecified (the previous pass's values): every op that uses
// it must write all elements.
func (s *Scratch) Output(sh tensor.Shape, f fixed.Format) *tensor.QTensor {
	if s == nil {
		return tensor.NewQ(sh, f)
	}
	if s.out == nil || s.out.Shape != sh || s.out.Fmt != f {
		s.out = tensor.NewQ(sh, f)
	}
	return s.out
}

// cursor loads events into the node's cursor (a fresh one for a nil
// scratch) keyed by op index, for an op of the given kind with adds adding
// operations, panicking on an event beyond that census.
func (s *Scratch) cursor(kind string, adds int64, events []fault.Event) *fault.Cursor {
	if s == nil {
		s = new(Scratch)
	}
	cur := &s.cur
	cur.Reset()
	for _, ev := range events {
		if ev.Op >= adds {
			panic(fmt.Sprintf("nn: %s event index %d beyond census", kind, ev.Op))
		}
		cur.Push(ev.Op, ev)
	}
	cur.Sort()
	return cur
}

// convScratch returns the node's direct-convolution arena (nil passes
// through, meaning allocate-fresh inside the engine).
func (s *Scratch) convScratch() *conv.Scratch {
	if s == nil {
		return nil
	}
	if s.conv == nil {
		s.conv = &conv.Scratch{}
	}
	s.conv.Backend = s.kb
	return s.conv
}

// wgScratch returns the node's winograd arena (nil passes through).
func (s *Scratch) wgScratch() *winograd.Scratch {
	if s == nil {
		return nil
	}
	if s.wg == nil {
		s.wg = &winograd.Scratch{Buffers: s.wgb}
	}
	s.wg.Backend = s.kb
	return s.wg
}
