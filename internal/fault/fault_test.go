package fault

import (
	"math"
	"testing"

	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestCensusArithmetic(t *testing.T) {
	a := Census{Mul: 10, Add: 20}
	b := Census{Mul: 1, Add: 2}
	if got := a.Total(); got != 30 {
		t.Errorf("Total = %d", got)
	}
	if got := a.AddCensus(b); got != (Census{11, 22}) {
		t.Errorf("AddCensus = %v", got)
	}
	if got := a.Scale(2.5); got != (Census{25, 50}) {
		t.Errorf("Scale = %v", got)
	}
	if a.Class(OpMul) != 10 || a.Class(OpAdd) != 20 {
		t.Error("Class lookup wrong")
	}
}

func TestCensusScaleRounds(t *testing.T) {
	cases := []struct {
		c    Census
		k    float64
		want Census
	}{
		// Exact integer products must be exact.
		{Census{Mul: 10, Add: 20}, 3, Census{Mul: 30, Add: 60}},
		{Census{Mul: 1 << 40, Add: 1 << 41}, 8, Census{Mul: 1 << 43, Add: 1 << 44}},
		// Fractional products round half away from zero, not truncate:
		// int64(10*1.75) would already be 17, but int64(3*1.5)=4 truncates 4.5.
		{Census{Mul: 3, Add: 5}, 1.5, Census{Mul: 5, Add: 8}},
		{Census{Mul: 7, Add: 9}, 0.1, Census{Mul: 1, Add: 1}},
		{Census{Mul: 1, Add: 2}, 0.2, Census{Mul: 0, Add: 0}},
	}
	for _, tc := range cases {
		if got := tc.c.Scale(tc.k); got != tc.want {
			t.Errorf("%v.Scale(%v) = %v, want %v", tc.c, tc.k, got, tc.want)
		}
	}
}

func TestSurfaceBits(t *testing.T) {
	cases := []struct {
		sem  Semantics
		cl   OpClass
		f    fixed.Format
		want int
	}{
		{OperandFlip, OpMul, fixed.Int16, 32},
		{OperandFlip, OpMul, fixed.Int8, 16},
		{OperandFlip, OpAdd, fixed.Int16, 32},
		{OperandFlip, OpAdd, fixed.Int8, 16},
		{ResultFlip, OpMul, fixed.Int16, 32},
		{ResultFlip, OpMul, fixed.Int8, 16},
		{ResultFlip, OpAdd, fixed.Int8, 8},
		{ResultFlip, OpAdd, fixed.Int16, 16},
		{NeuronFlip, OpMul, fixed.Int16, 16},
		{NeuronFlip, OpAdd, fixed.Int8, 8},
	}
	for _, c := range cases {
		if got := SurfaceBits(c.sem, c.cl, c.f); got != c.want {
			t.Errorf("SurfaceBits(%v,%v,%v) = %d, want %d", c.sem, c.cl, c.f, got, c.want)
		}
	}
}

func TestProtectionFracClamps(t *testing.T) {
	p := Protection{MulFrac: 1.5, AddFrac: -0.5}
	if p.Frac(OpMul) != 1 || p.Frac(OpAdd) != 0 {
		t.Errorf("clamping wrong: %v %v", p.Frac(OpMul), p.Frac(OpAdd))
	}
}

func TestLambda(t *testing.T) {
	c := Census{Mul: 1000, Add: 2000}
	m := Model{BER: 1e-3, Semantics: ResultFlip}
	// mul: 1000 ops * 32 bits * 1e-3 = 32
	if got := Lambda(OpMul, c, m, fixed.Int16, Protection{}); math.Abs(got-32) > 1e-9 {
		t.Errorf("Lambda(mul) = %v, want 32", got)
	}
	// add: 2000 ops * 16-bit result register * 1e-3 = 32; half protected -> 16
	if got := Lambda(OpAdd, c, m, fixed.Int16, Protection{AddFrac: 0.5}); math.Abs(got-16) > 1e-9 {
		t.Errorf("Lambda(add, 50%% prot) = %v, want 16", got)
	}
	// full protection kills the rate.
	if got := Lambda(OpMul, c, m, fixed.Int16, Protection{MulFrac: 1}); got != 0 {
		t.Errorf("Lambda with full protection = %v", got)
	}
}

func TestSampleCountsMatchBinomialMean(t *testing.T) {
	r := rng.New(99)
	c := Census{Mul: 100000, Add: 100000}
	m := Model{BER: 1e-5, Semantics: ResultFlip}
	const rounds = 400
	var total float64
	for i := 0; i < rounds; i++ {
		evs := Sample(r.Split(uint64(i)), c, c, m, fixed.Int16, Protection{})
		total += float64(len(evs))
	}
	mean := total / rounds
	// Expected: mul 1e5*32*1e-5=32, add 1e5*16*1e-5=16 -> 48.
	if math.Abs(mean-48) > 3 {
		t.Errorf("mean event count = %v, want ~48", mean)
	}
}

func TestSampleZeroBER(t *testing.T) {
	r := rng.New(1)
	if evs := Sample(r, Census{1000, 1000}, Census{1000, 1000}, Model{BER: 0}, fixed.Int16, Protection{}); evs != nil {
		t.Errorf("zero BER produced %d events", len(evs))
	}
}

func TestSampleEventFieldsInRange(t *testing.T) {
	r := rng.New(2)
	c := Census{Mul: 50, Add: 70}
	m := Model{BER: 0.01, Semantics: OperandFlip}
	for trial := 0; trial < 50; trial++ {
		for _, ev := range Sample(r.Split(uint64(trial)), c, c, m, fixed.Int16, Protection{}) {
			if ev.Op < 0 || ev.Op >= c.Class(ev.Class) {
				t.Fatalf("op index %d out of range for %v", ev.Op, ev.Class)
			}
			if ev.Operand > 1 {
				t.Fatalf("operand = %d", ev.Operand)
			}
			half := SurfaceBits(m.Semantics, ev.Class, fixed.Int16) / 2
			if int(ev.Bit) >= half {
				t.Fatalf("bit %d out of per-operand range %d", ev.Bit, half)
			}
		}
	}
}

func TestSampleResultFlipBitRange(t *testing.T) {
	r := rng.New(3)
	c := Census{Mul: 100, Add: 100}
	m := Model{BER: 0.01, Semantics: ResultFlip}
	for trial := 0; trial < 50; trial++ {
		for _, ev := range Sample(r.Split(uint64(trial)), c, c, m, fixed.Int8, Protection{}) {
			limit := SurfaceBits(m.Semantics, ev.Class, fixed.Int8)
			if int(ev.Bit) >= limit {
				t.Fatalf("bit %d out of range %d for %v", ev.Bit, limit, ev.Class)
			}
			if ev.Operand != ResultReg {
				t.Fatalf("ResultFlip event has Operand %#x, want ResultReg", ev.Operand)
			}
		}
	}
}

func TestSampleProtectionThins(t *testing.T) {
	c := Census{Mul: 200000, Add: 0}
	m := Model{BER: 1e-5, Semantics: ResultFlip}
	count := func(p Protection, seed uint64) float64 {
		r := rng.New(seed)
		var total float64
		for i := 0; i < 300; i++ {
			total += float64(len(Sample(r.Split(uint64(i)), c, c, m, fixed.Int16, p)))
		}
		return total / 300
	}
	unprot := count(Protection{}, 4)
	half := count(Protection{MulFrac: 0.5}, 5)
	full := count(Protection{MulFrac: 1}, 6)
	if full != 0 {
		t.Errorf("fully protected layer still faults: %v", full)
	}
	if math.Abs(half/unprot-0.5) > 0.1 {
		t.Errorf("half protection ratio = %v, want ~0.5", half/unprot)
	}
}

func TestSampleIntensityScaling(t *testing.T) {
	// A 10x intensity census must produce ~10x the events while op indices
	// stay within the (smaller) site census.
	site := Census{Mul: 1000, Add: 0}
	intensity := site.Scale(10)
	m := Model{BER: 1e-4, Semantics: ResultFlip}
	r := rng.New(7)
	var total float64
	const rounds = 300
	for i := 0; i < rounds; i++ {
		evs := Sample(r.Split(uint64(i)), site, intensity, m, fixed.Int16, Protection{})
		total += float64(len(evs))
		for _, ev := range evs {
			if ev.Op >= site.Mul {
				t.Fatalf("op index %d outside site census %d", ev.Op, site.Mul)
			}
		}
	}
	mean := total / rounds
	want := float64(intensity.Mul) * 32 * 1e-4
	if math.Abs(mean-want) > want*0.15 {
		t.Errorf("mean = %v, want ~%v", mean, want)
	}
}

// TestMulAdd pins the one corruption rule every engine replays through:
// what each kind of event does to a multiplication or an addition, and that
// a repeated event cancels. It also pins that the rule agrees bit for bit
// with the direct engine's former per-event multiplication rule on every
// event list a campaign can produce: all operand flips or all result flips,
// repeats included. (That engine's addition rule was already operands, add,
// result.)
func TestMulAdd(t *testing.T) {
	const a, b = int64(-1234), int64(567)
	flip := fixed.FlipBit
	for _, tc := range []struct {
		name     string
		evs      []Event
		mul, add int64
	}{
		{"none", nil, a * b, a + b},
		{"operand0", []Event{{Bit: 9}}, flip(a, 9) * b, flip(a, 9) + b},
		{"operand1", []Event{{Bit: 3, Operand: 1}}, a * flip(b, 3), a + flip(b, 3)},
		{"result", []Event{{Bit: 30, Operand: ResultReg}}, flip(a*b, 30), flip(a+b, 30)},
		{"operand0 twice", []Event{{Bit: 9}, {Bit: 9}}, a * b, a + b},
		{"operand1 twice", []Event{{Bit: 3, Operand: 1}, {Bit: 3, Operand: 1}}, a * b, a + b},
		{"result twice", []Event{{Bit: 30, Operand: ResultReg}, {Bit: 30, Operand: ResultReg}}, a * b, a + b},
	} {
		if got := Mul(a, b, tc.evs); got != tc.mul {
			t.Errorf("%s: Mul = %d, want %d", tc.name, got, tc.mul)
		}
		if got := Add(a, b, tc.evs); got != tc.add {
			t.Errorf("%s: Add = %d, want %d", tc.name, got, tc.add)
		}
	}

	r := rng.New(15)
	for trial := 0; trial < 5000; trial++ {
		x, y := int64(r.Intn(1<<16)-1<<15), int64(r.Intn(1<<16)-1<<15)
		result := trial%2 == 1
		var evs []Event
		for n := r.Intn(5); len(evs) < n; {
			if len(evs) > 0 && r.Intn(3) == 0 {
				evs = append(evs, evs[r.Intn(len(evs))]) // a repeat
				continue
			}
			ev := Event{Bit: uint8(r.Intn(16)), Operand: uint8(r.Intn(2))}
			if result {
				ev = Event{Bit: uint8(r.Intn(32)), Operand: ResultReg}
			}
			evs = append(evs, ev)
		}
		if got, want := Mul(x, y, evs), legacyMul(x, y, evs); got != want {
			t.Fatalf("Mul(%d, %d, %+v) = %d, per-event rule %d", x, y, evs, got, want)
		}
	}
}

// legacyMul is the direct engine's former per-event multiplication rule:
// events apply in order, a result flip toggling the current product and an
// operand flip recomputing it from the flipped operand.
func legacyMul(a, b int64, evs []Event) int64 {
	prod := a * b
	for _, ev := range evs {
		switch ev.Operand {
		case ResultReg:
			prod = fixed.FlipBit(prod, uint(ev.Bit))
		case 0:
			a = fixed.FlipBit(a, uint(ev.Bit))
			prod = a * b
		default:
			b = fixed.FlipBit(b, uint(ev.Bit))
			prod = a * b
		}
	}
	return prod
}

func TestInjectNeuronsRate(t *testing.T) {
	f := fixed.Int16
	q := tensor.NewQ(tensor.Shape{N: 1, C: 8, H: 32, W: 32}, f)
	r := rng.New(11)
	const ber = 1e-4
	var flips float64
	const rounds = 50
	for i := 0; i < rounds; i++ {
		flips += float64(InjectNeurons(q, ber, r.Split(uint64(i))))
	}
	mean := flips / rounds
	want := float64(len(q.Data)) * 16 * ber
	if math.Abs(mean-want) > want*0.3 {
		t.Errorf("mean flips = %v, want ~%v", mean, want)
	}
}

func TestInjectNeuronsChangesValues(t *testing.T) {
	f := fixed.Int16
	q := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 16, W: 16}, f)
	r := rng.New(13)
	n := InjectNeurons(q, 0.01, r)
	if n == 0 {
		t.Skip("no faults sampled (expected rare)")
	}
	changed := 0
	for _, v := range q.Data {
		if v != 0 {
			changed++
		}
	}
	if changed == 0 {
		t.Error("faults reported but no value changed")
	}
	if changed > n {
		t.Errorf("%d values changed with only %d flips", changed, n)
	}
}

func TestInjectNeuronsZeroBER(t *testing.T) {
	q := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 4, W: 4}, fixed.Int8)
	if n := InjectNeurons(q, 0, rng.New(1)); n != 0 {
		t.Errorf("zero BER flipped %d bits", n)
	}
}

func TestStringers(t *testing.T) {
	if OpMul.String() != "mul" || OpAdd.String() != "add" {
		t.Error("OpClass strings wrong")
	}
	if OperandFlip.String() != "operand" || ResultFlip.String() != "result" || NeuronFlip.String() != "neuron" {
		t.Error("Semantics strings wrong")
	}
	if OpClass(9).String() == "" || Semantics(9).String() == "" {
		t.Error("unknown values must still render")
	}
}
