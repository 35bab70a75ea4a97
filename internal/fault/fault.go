// Package fault defines the soft-error models of the reproduction: the
// bit-error-rate metric, the three injection semantics (operand-level,
// result-level, neuron-level), the statistical sampler that converts a
// per-bit Bernoulli process over billions of executed operations into a small
// set of exactly-placed fault events, the one rule (Mul, Add) by which
// every engine applies an event to the operation it lands in, and the one
// Cursor through which every engine routes events to those operations.
//
// The paper's operation-level platform injects "random soft errors ... to the
// results of primitive operations i.e. multiplication and addition", with the
// motivating observation that operand corruption of a multiplication is far
// more damaging than of an addition. Both views are implemented here and can
// be compared with the semantics ablation experiment.
package fault

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/fixed"
	"repro/internal/rng"
)

// OpClass identifies the primitive operation class a fault lands in.
type OpClass uint8

const (
	// OpMul is a multiplication (MAC multiplier, Hadamard product, ...).
	OpMul OpClass = iota
	// OpAdd is an addition (accumulation, transform add, bias add, ...).
	OpAdd
	numOpClasses
)

func (c OpClass) String() string {
	switch c {
	case OpMul:
		return "mul"
	case OpAdd:
		return "add"
	default:
		return fmt.Sprintf("OpClass(%d)", uint8(c))
	}
}

// Semantics selects how a fault event corrupts an operation.
type Semantics uint8

const (
	// ResultFlip flips one bit of the operation's result register: the full
	// 2W-bit product register for multiplications, the W-bit result register
	// for additions. This is the platform default — it is the paper's
	// stated methodology ("random soft errors injected to the results of
	// primitive operations").
	ResultFlip Semantics = iota
	// OperandFlip flips one bit of one W-bit input operand of the chosen
	// operation. For a multiplication the induced output error scales with
	// the other operand; for an addition it is a single power of two —
	// the paper's motivating observation, kept as an ablation semantics.
	OperandFlip
	// NeuronFlip is the coarse neuron-level semantics of TensorFI/PyTorchFI:
	// bits are flipped in layer output activations. It cannot distinguish
	// standard from winograd convolution (paper Fig. 1).
	NeuronFlip
)

func (s Semantics) String() string {
	switch s {
	case OperandFlip:
		return "operand"
	case ResultFlip:
		return "result"
	case NeuronFlip:
		return "neuron"
	default:
		return fmt.Sprintf("Semantics(%d)", uint8(s))
	}
}

// Model is a complete soft-error configuration.
type Model struct {
	// BER is the probability that any single bit of an operation's fault
	// surface flips during that operation's execution, per the paper's
	// "probability of a bit flip in an operation" metric.
	BER float64
	// Semantics selects operand-, result- or neuron-level injection.
	Semantics Semantics
}

// Census counts the primitive operations of one engine invocation (one
// layer forward pass), per class.
type Census struct {
	Mul int64
	Add int64
}

// Total returns Mul + Add.
func (c Census) Total() int64 { return c.Mul + c.Add }

// Class returns the count for one op class.
func (c Census) Class(cl OpClass) int64 {
	if cl == OpMul {
		return c.Mul
	}
	return c.Add
}

// AddCensus returns the element-wise sum of two censuses.
func (c Census) AddCensus(o Census) Census {
	return Census{Mul: c.Mul + o.Mul, Add: c.Add + o.Add}
}

// Scale returns the census multiplied by k (used to translate a scaled-down
// model's census to the full-size network's fault intensity), rounding half
// away from zero: truncating toward zero would bias every scaled-up intensity
// low by up to one whole operation per class.
func (c Census) Scale(k float64) Census {
	return Census{Mul: scaleCount(c.Mul, k), Add: scaleCount(c.Add, k)}
}

func scaleCount(n int64, k float64) int64 {
	return int64(math.Round(float64(n) * k))
}

// SurfaceBits returns the size in bits of the fault surface of one operation
// of the given class under the given semantics and data format. The surface
// is what the per-bit BER multiplies into a per-op fault rate.
//
// Register model: every operand and every addition result lives in a W-bit
// datapath register, so a flipped addition bit perturbs the value by at most
// 2^(W-1) accumulator LSBs — small against the 2^2F accumulator scale. A
// multiplication amplifies a flipped operand bit by the other operand, and
// its result occupies the full 2W-bit product register, so multiplication
// faults are far more damaging per event. This register model is what makes
// the engines reproduce the paper's Fig. 4 asymmetry (multiplications much
// more vulnerable than additions) from first principles.
func SurfaceBits(sem Semantics, cl OpClass, f fixed.Format) int {
	switch sem {
	case OperandFlip:
		return 2 * f.Width // two W-bit operand registers, either class
	case ResultFlip:
		if cl == OpMul {
			return f.ProductBits() // full 2W-bit product register
		}
		return f.Width // addition result returns to a W-bit register
	case NeuronFlip:
		return f.Width
	default:
		panic("fault: unknown semantics")
	}
}

// Event is one sampled fault: a specific bit of a specific operand/result of
// a specific operation (identified by its flat index in the engine's
// deterministic op ordering for the layer invocation).
type Event struct {
	Class   OpClass
	Op      int64 // flat op index within the class ordering of the layer
	Bit     uint8 // bit position within the chosen register
	Operand uint8 // 0 or 1 for an operand flip; ResultReg for a result flip
}

// ResultReg is the Operand of an event that flips a bit of the operation's
// result register instead of one of its operands. The code that creates an
// event sets it (Sample under ResultFlip, and the hardware-located scenario
// constructors), so engines replay every event without knowing how it was
// drawn.
const ResultReg uint8 = 0x80

// Mul returns the product a·b as corrupted by evs, the events of that one
// multiplication: every operand flip, then the multiply, then every result
// flip. Flips are pure XOR at the event's bit, so an event applied twice
// cancels. Engines own which operation an event addresses (their op
// ordering); this rule owns what the event does to it.
func Mul(a, b int64, evs []Event) int64 {
	a, b = flipOperands(a, b, evs)
	return flipResult(a*b, evs)
}

// Add is Mul's rule for one addition a+b: operand flips, the add, then
// result flips, in the W-bit datapath register model (see SurfaceBits).
func Add(a, b int64, evs []Event) int64 {
	a, b = flipOperands(a, b, evs)
	return flipResult(a+b, evs)
}

func flipOperands(a, b int64, evs []Event) (int64, int64) {
	for _, ev := range evs {
		switch ev.Operand {
		case ResultReg:
		case 0:
			a = fixed.FlipBit(a, uint(ev.Bit))
		default:
			b = fixed.FlipBit(b, uint(ev.Bit))
		}
	}
	return a, b
}

func flipResult(v int64, evs []Event) int64 {
	for _, ev := range evs {
		if ev.Operand == ResultReg {
			v = fixed.FlipBit(v, uint(ev.Bit))
		}
	}
	return v
}

// Cursor is the one way fault events reach the operations they address. An
// engine pass keys every event by the site that replays it (each engine
// documents its key layout beside its op-ordering contract), sorts once, and
// walks its sites in key order, consuming the events front to back. Keys
// are never negative. The zero value is ready to use; buffers are recycled
// across passes.
type Cursor struct {
	key    []int64
	evs    []Event // evs[i] is keyed key[i]
	next   int     // first unconsumed event
	peeked int     // next+1 at the last Peek, 0 if none
}

// Reset empties the cursor for a new pass. Recycled buffers still hold the
// previous round, which must not leak into this one.
func (c *Cursor) Reset() {
	c.key, c.evs, c.next, c.peeked = c.key[:0], c.evs[:0], 0, 0
}

// Push adds ev under key, panicking on a negative key.
func (c *Cursor) Push(key int64, ev Event) {
	if key < 0 {
		panic(fmt.Sprintf("fault: %v event index %d has negative key %d", ev.Class, ev.Op, key))
	}
	c.key = append(c.key, key)
	c.evs = append(c.evs, ev)
}

// Sort orders the events by key, keeping equal keys in push order. Sets
// below radixMin (the overwhelmingly common case) use an insertion sort;
// dense draws (high BERs, stuck PEs, bursts) use a stable LSD radix sort,
// linear in the events, whose second buffer pair comes from a pool.
func (c *Cursor) Sort() {
	if len(c.key) >= radixMin {
		c.radixSort()
	} else {
		c.insertionSort()
	}
}

func (c *Cursor) insertionSort() {
	for i := 1; i < len(c.key); i++ {
		for j := i; j > 0 && c.key[j-1] > c.key[j]; j-- {
			c.key[j-1], c.key[j] = c.key[j], c.key[j-1]
			c.evs[j-1], c.evs[j] = c.evs[j], c.evs[j-1]
		}
	}
}

// The radix sort's digits: 11 bits, so a 63-bit key takes at most six
// counting passes and a pass's counters (8 KB) stay in the L1 cache.
const (
	radixBits   = 11
	radixDigits = (63 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
)

// radixBufs is the radix sort's second key/event buffer pair and its
// per-digit counters.
type radixBufs struct {
	key   []int64
	evs   []Event
	count [radixDigits][1 << radixBits]uint32
}

var radixPool = sync.Pool{New: func() any { return new(radixBufs) }}

// radixSort is Sort's stable LSD radix sort. One read of the keys counts
// every digit up to the largest key's highest bit; each counting pass then
// scatters into the other buffer pair, skipping a digit that every key
// shares, and the result is copied back if it ends in the pooled pair.
func (c *Cursor) radixSort() {
	n := len(c.key)
	var top int64
	for _, k := range c.key {
		top |= k
	}
	s := radixPool.Get().(*radixBufs)
	count := s.count[:(bits.Len64(uint64(top))+radixBits-1)/radixBits]
	clear(count)
	for _, k := range c.key {
		for d := range count {
			count[d][k>>(d*radixBits)&radixMask]++
		}
	}
	if cap(s.key) < n {
		s.key, s.evs = make([]int64, n), make([]Event, n)
	}
	srcK, srcE, dstK, dstE := c.key, c.evs, s.key[:n], s.evs[:n]
	for d := range count {
		shift, pos := d*radixBits, &count[d]
		if pos[srcK[0]>>shift&radixMask] == uint32(n) {
			continue // every key has this digit: the pass would move nothing
		}
		var sum uint32
		for b, v := range pos {
			pos[b], sum = sum, sum+v
		}
		for i, k := range srcK {
			b := k >> shift & radixMask
			dstK[pos[b]], dstE[pos[b]] = k, srcE[i]
			pos[b]++
		}
		srcK, srcE, dstK, dstE = dstK, dstE, srcK, srcE
	}
	if &srcK[0] != &c.key[0] {
		copy(c.key, srcK)
		copy(c.evs, srcE)
	}
	radixPool.Put(s)
}

// Below reports whether the next unconsumed event's key is below end.
func (c *Cursor) Below(end int64) bool {
	return c.next < len(c.key) && c.key[c.next] < end
}

// Peek returns the next unconsumed event's key; valid only after Below. A
// walk peeks to find the site that owns that key and replays it, which
// consumes the event. Peek panics when nothing was consumed since the last
// Peek, so a site loop whose site misses its own key fails instead of
// spinning.
func (c *Cursor) Peek() int64 {
	if c.peeked == c.next+1 {
		panic(fmt.Sprintf("fault: no site consumed the event keyed %d", c.key[c.next]))
	}
	c.peeked = c.next + 1
	return c.key[c.next]
}

// At consumes and returns the events keyed key: empty when the next event
// has another key. Walks call it with increasing keys and consume every key
// below the ones they ask for.
func (c *Cursor) At(key int64) []Event {
	i := c.next
	for c.next < len(c.key) && c.key[c.next] == key {
		c.next++
	}
	return c.evs[i:c.next]
}

// cursorCap is the largest buffer, in events, a Cursor keeps across passes,
// so a long-lived Scratch does not hold its last dense round's keyed copy.
const cursorCap = 256

// radixMin is the smallest event set Sort radix-sorts: the first size whose
// buffers a Cursor does not keep. Every pass it keeps buffers for sorts on
// them alone, without the pool, and so allocates nothing once warm (a
// sync.Pool may drop what it holds at any time). BenchmarkCursorSort puts
// the radix sort ahead from about 110 events on, where its fixed cost
// (clearing and summing 2048 counters per digit) meets the insertion
// sort's quadratic one. Up to 256 events the insertion sort costs at most
// about 65 µs more per sort; default-scale campaigns at 1e-11 to 1e-7 sort
// 2–24 sets of 128 to 256 events each, under 1 ms in all.
const radixMin = cursorCap + 1

// Done ends a pass. It panics if an event was left unconsumed, because no
// site the walk visits owns its key, and it drops buffers above cursorCap.
func (c *Cursor) Done() {
	if c.next < len(c.key) {
		ev := c.evs[c.next]
		panic(fmt.Sprintf("fault: %v event index %d (key %d) was not replayed", ev.Class, ev.Op, c.key[c.next]))
	}
	if cap(c.key) > cursorCap {
		c.key, c.evs = nil, nil
	}
}

// Protection describes the fraction of operations of each class in a layer
// that are TMR-protected (majority-voted, hence immune to single faults).
// The paper's fine-grained TMR selects the protected subset uniformly at
// random with multiplications prioritised, which is statistically equivalent
// to thinning the fault process by the protected fraction.
type Protection struct {
	MulFrac float64 // fraction of multiplications protected, in [0,1]
	AddFrac float64 // fraction of additions protected, in [0,1]
}

// Frac returns the protected fraction for an op class, clamped to [0,1].
func (p Protection) Frac(cl OpClass) float64 {
	f := p.AddFrac
	if cl == OpMul {
		f = p.MulFrac
	}
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Lambda returns the expected number of unprotected fault events for one op
// class of a layer whose fault intensity is governed by intensityCensus
// (normally the layer's own census; experiments may substitute the full-size
// network's census to keep the paper's BER axis).
func Lambda(cl OpClass, intensity Census, m Model, f fixed.Format, p Protection) float64 {
	n := float64(intensity.Class(cl))
	return n * float64(SurfaceBits(m.Semantics, cl, f)) * m.BER * (1 - p.Frac(cl))
}

// Sample draws the fault events for one layer invocation.
//
// siteCensus is the census of the engine that will apply the events (op
// indices are drawn within it); intensityCensus governs the expected event
// count and may be a scaled-up census (see Lambda). Passing the same census
// for both reproduces plain per-bit Bernoulli injection exactly: the number
// of flipped bits among N·surface independent Bernoulli(BER) trials is
// Binomial(N·surface, BER), which the sampler draws before placing each
// event uniformly, the standard decomposition of an i.i.d. thinned process.
func Sample(r *rng.Stream, siteCensus, intensityCensus Census, m Model, f fixed.Format, p Protection) []Event {
	if m.BER <= 0 {
		return nil
	}
	var events []Event
	for _, cl := range []OpClass{OpMul, OpAdd} {
		sites := siteCensus.Class(cl)
		if sites <= 0 {
			continue
		}
		surface := SurfaceBits(m.Semantics, cl, f)
		trials := intensityCensus.Class(cl) * int64(surface)
		keep := 1 - p.Frac(cl)
		if keep <= 0 {
			continue
		}
		k := r.Binomial(trials, m.BER*keep)
		for i := int64(0); i < k; i++ {
			ev := Event{
				Class: cl,
				Op:    r.Int63n(sites),
				Bit:   uint8(r.Intn(surface)),
			}
			switch m.Semantics {
			case ResultFlip:
				ev.Operand = ResultReg
			case OperandFlip:
				// The surface spans both operand registers; split it.
				half := surface / 2
				if int(ev.Bit) >= half {
					ev.Operand = 1
					ev.Bit -= uint8(half)
				}
			}
			events = append(events, ev)
		}
	}
	return events
}
