// Package kernel is the pluggable compute-backend seam of the engines: a
// small Backend interface over the fault-free hot paths — the direct-conv
// MAC chain, the FC dot product, the winograd f2/f4 input/output transforms
// and the per-tile Hadamard accumulation — with a registry so alternative
// implementations (blocked today; asm or SIMD tomorrow) are a one-package
// drop-in behind a name.
//
// The contract every Backend must honor is bit-exactness, not approximate
// equality: int64 addition and multiplication form a commutative ring
// (wrapping two's-complement), so any implementation that sums the SAME SET
// of int64 products per accumulator — in any association or order — and
// leaves requantization to the caller produces results bit-identical to the
// scalar reference. Backends may therefore block, unroll, and reassociate
// freely, but must never round intermediates, change the product set, or
// requantize early. Fault replay is not part of this interface: the
// census↔replay contract addresses single operations, so conv.replayOutput,
// the winograd per-site replay and the DWM summation walk apply events on
// scalar reference code. A faulty winograd tile still runs these kernels for
// everything its events do not touch, which the same ring argument makes
// exact.
package kernel

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// Tile names a winograd tile algorithm for the transform entry points.
type Tile int

const (
	// F2 is F(2x2,3x3): 4x4 input tiles, 2x2 output tiles.
	F2 Tile = iota
	// F4 is F(4x4,3x3): 6x6 input tiles, 4x4 output tiles.
	F4
)

// Backend implements the fault-free hot-path kernels. All methods are pure
// integer arithmetic over caller-owned buffers: implementations must not
// allocate (the zero-allocation steady state is pinned by alloc tests) and
// must return accumulator sums bit-identical to the scalar reference.
type Backend interface {
	// Name is the registry key ("scalar", "blocked").
	Name() string

	// ConvRow computes one direct-convolution output row of accumulators:
	// for each ox in [0, len(acc)),
	//
	//	acc[ox] = bias + Σ_{c,ky,kx} in[inBase + c·chanStride + ky·rowStride + ox·stride + kx] · w[(c·kh+ky)·kw + kx]
	//
	// where in is the padded activation plane, w the ic·kh·kw weight block of
	// one output channel, inBase the flat index of the row's top-left input
	// element in channel 0, chanStride the input channel pitch and rowStride
	// the input row pitch. The caller requantizes.
	ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int)

	// Dot returns bias + Σ a[i]·b[i] — the fully-connected (1x1 conv over a
	// 1x1 plane) special case where both operand rows are contiguous.
	Dot(a, b []int32, bias int64) int64

	// Hadamard computes the per-tile winograd Hadamard products with channel
	// accumulation: msum[o·t2+i] = Σ_c ut[(i·outC+o)·inC + c] · vt[i·inC + c]
	// for every (position i, output channel o). ut is the position-major
	// transposed weight block UT, vt the position-major transformed input.
	Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int)

	// InputRows computes the 2D winograd input transform BT·d·BTᵀ of tile t,
	// reading the TxT input window directly from activation rows at src with
	// row pitch stride, into the T² accumulator-domain outputs.
	InputRows(t Tile, src []int32, stride int, out []int64)

	// Output computes the 2D winograd output transform AT·msum·ATᵀ of tile t
	// into the M² accumulator-domain outputs.
	Output(t Tile, msum, y []int64)
}

var (
	regMu    sync.RWMutex
	backends = map[string]Backend{}

	defaultOnce sync.Once
	defaultBk   Backend
)

// Register adds a backend under its Name. It panics on an empty or duplicate
// name; backends register from init functions, so a collision is a build
// defect, not a runtime condition.
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("kernel: Register with empty backend name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("kernel: backend %q registered twice", name))
	}
	backends[name] = b
}

// Get resolves a backend by name. The empty string means the process default
// (see Default). Unknown names return a descriptive error listing the
// registered backends, so misspellings surface at configuration time rather
// than as silently-scalar campaigns.
func Get(name string) (Backend, error) {
	if name == "" {
		return Default(), nil
	}
	regMu.RLock()
	defer regMu.RUnlock()
	if b, ok := backends[name]; ok {
		return b, nil
	}
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("kernel: unknown backend %q (have %s)", name, strings.Join(names, ", "))
}

// Names lists the registered backends, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default returns the process-default backend: blocked, unless the
// WF_BACKEND environment variable names another registered backend. scalar
// stays registered as the bit-exactness reference that every differential
// test compares against. The env override is the forcing seam CI's
// backend-matrix job uses to run the whole test suite through the reference
// (WF_BACKEND=scalar) without touching any call site; because every backend
// is bit-identical, the suite must pass unchanged. A WF_BACKEND naming no
// registered backend panics: silently falling back would defeat the forcing.
func Default() Backend {
	defaultOnce.Do(func() {
		defaultBk = blocked{}
		if name := os.Getenv("WF_BACKEND"); name != "" {
			regMu.RLock()
			b, ok := backends[name]
			regMu.RUnlock()
			if !ok {
				panic(fmt.Sprintf("kernel: WF_BACKEND=%q is not a registered backend", name))
			}
			defaultBk = b
		}
	})
	return defaultBk
}
