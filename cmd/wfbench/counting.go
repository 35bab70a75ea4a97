package main

import (
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
)

// countingName is the registry name of the counting backend.
const countingName = "counting"

// sampleEvery is the sampling stride of kernel timing: every call is
// counted, but only every sampleEvery-th call of each kernel is timed. A
// timed call costs two clock reads (about 100 ns on the reference host),
// more than a whole winograd tile transform, so timing every call would
// slow the engines several-fold and mostly measure the clock.
const sampleEvery = 16

// kernelCounts is a snapshot of the counting backend's counters. MACs are
// the multiply-accumulates the calls performed, exactly; busy estimates the
// wall time spent inside kernel calls from the timed sample.
type kernelCounts struct {
	convRowMACs, dotMACs, hadamardMACs int64
	transforms                         int64 // InputRows + Output calls
	busy                               time.Duration
}

func (k kernelCounts) macs() int64 { return k.convRowMACs + k.dotMACs + k.hadamardMACs }

func (k kernelCounts) sub(o kernelCounts) kernelCounts {
	return k.add(kernelCounts{-o.convRowMACs, -o.dotMACs, -o.hadamardMACs, -o.transforms, -o.busy})
}

func (k kernelCounts) add(o kernelCounts) kernelCounts {
	return kernelCounts{
		convRowMACs:  k.convRowMACs + o.convRowMACs,
		dotMACs:      k.dotMACs + o.dotMACs,
		hadamardMACs: k.hadamardMACs + o.hadamardMACs,
		transforms:   k.transforms + o.transforms,
		busy:         k.busy + o.busy,
	}
}

// calls counts one kernel's calls and the MACs they performed.
type calls struct{ n, macs atomic.Int64 }

// counting wraps the backend a run would otherwise use and, while enabled,
// counts every call into it and times a systematic sample of the calls.
// Disabled, it only forwards.
type counting struct {
	inner kernel.Backend
	on    atomic.Bool
	// clock is the measured cost of an empty timed interval, taken off each
	// timed call so the sample holds kernel time, not clock-read time.
	clock time.Duration

	convRow, dot, hadamard, inputRows, output calls
	sampled                                   atomic.Int64 // ns in timed calls
}

var (
	counter     *counting
	installOnce sync.Once
)

// installCounting registers the counting backend around the backend the
// process would otherwise default to (WF_BACKEND, else scalar). It must run
// before anything resolves the process default.
func installCounting() *counting {
	installOnce.Do(func() {
		name := os.Getenv("WF_BACKEND")
		if name == "" || name == countingName {
			name = "scalar"
		}
		inner, err := kernel.Get(name)
		if err != nil {
			panic(err) // WF_BACKEND names no backend: the engines would panic too
		}
		counter = &counting{inner: inner, clock: clockCost()}
		kernel.Register(counter)
	})
	return counter
}

// clockCost is the median duration of an empty timed interval.
func clockCost() time.Duration {
	ds := make([]time.Duration, 1001)
	for i := range ds {
		t := time.Now()
		ds[i] = time.Since(t)
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

func (b *counting) snapshot() kernelCounts {
	return kernelCounts{
		convRowMACs:  b.convRow.macs.Load(),
		dotMACs:      b.dot.macs.Load(),
		hadamardMACs: b.hadamard.macs.Load(),
		transforms:   b.inputRows.n.Load() + b.output.n.Load(),
		busy:         time.Duration(b.sampled.Load() * sampleEvery),
	}
}

// count records one call of c with its MACs and reports whether to time it.
func (c *calls) count(macs int64) bool {
	if macs != 0 {
		c.macs.Add(macs)
	}
	return c.n.Add(1)%sampleEvery == 0
}

// timed adds one timed call's duration, less the clock's own cost.
func (b *counting) timed(t time.Time) {
	if d := time.Since(t) - b.clock; d > 0 {
		b.sampled.Add(int64(d))
	}
}

func (b *counting) Name() string { return countingName }

func (b *counting) ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	if !b.on.Load() || !b.convRow.count(int64(len(acc)*ic*kh*kw)) {
		b.inner.ConvRow(acc, in, w, bias, inBase, stride, ic, kh, kw, chanStride, rowStride)
		return
	}
	t := time.Now()
	b.inner.ConvRow(acc, in, w, bias, inBase, stride, ic, kh, kw, chanStride, rowStride)
	b.timed(t)
}

func (b *counting) Dot(a, w []int32, bias int64) int64 {
	if !b.on.Load() || !b.dot.count(int64(len(a))) {
		return b.inner.Dot(a, w, bias)
	}
	t := time.Now()
	r := b.inner.Dot(a, w, bias)
	b.timed(t)
	return r
}

func (b *counting) Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int) {
	if !b.on.Load() || !b.hadamard.count(int64(t2*outC*inC)) {
		b.inner.Hadamard(msum, vt, ut, t2, outC, inC)
		return
	}
	t := time.Now()
	b.inner.Hadamard(msum, vt, ut, t2, outC, inC)
	b.timed(t)
}

func (b *counting) InputRows(tile kernel.Tile, src []int32, stride int, out []int64) {
	if !b.on.Load() || !b.inputRows.count(0) {
		b.inner.InputRows(tile, src, stride, out)
		return
	}
	t := time.Now()
	b.inner.InputRows(tile, src, stride, out)
	b.timed(t)
}

func (b *counting) Output(tile kernel.Tile, msum, y []int64) {
	if !b.on.Load() || !b.output.count(0) {
		b.inner.Output(tile, msum, y)
		return
	}
	t := time.Now()
	b.inner.Output(tile, msum, y)
	b.timed(t)
}
