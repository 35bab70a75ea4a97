package hwfault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/systolic"
	"repro/internal/volt"
)

// Kind selects a hardware-located fault scenario.
type Kind uint8

const (
	// StuckPE is a permanent fault in one processing element: every
	// multiplication scheduled onto the PE has one product-register bit
	// corrupted. A true stuck-at pins the bit to a constant; compiling to
	// the platform's flip events models the worst case in which the pinned
	// value always disagrees with the computed bit (a "stuck-inverted"
	// fault), which upper-bounds the real stuck-at-0/1 damage.
	StuckPE Kind = iota + 1
	// BurstSEU is one single-event upset burst per Monte-Carlo round: a
	// (PE, cycle-window) pair is sampled over the whole network's schedule
	// and a contiguous run of the PE's MAC slots is corrupted, one random
	// product bit each — spatially and temporally clustered faults, unlike
	// the i.i.d. statistical model.
	BurstSEU
	// VoltRegion is a voltage-stressed rectangular PE region: MACs mapped
	// inside the region draw Bernoulli bit flips at the timing-error rate
	// volt.Accelerator.BER(V), while the rest of the array keeps the
	// campaign's nominal (swept) BER.
	VoltRegion
)

func (k Kind) String() string {
	switch k {
	case StuckPE:
		return "stuckpe"
	case BurstSEU:
		return "burst"
	case VoltRegion:
		return "voltregion"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// DefaultBurstSpan is the burst cluster length when Scenario.Span is 0.
const DefaultBurstSpan = 64

// Scenario describes one hardware-located fault configuration.
type Scenario struct {
	Kind Kind

	// PE is the stuck element (StuckPE). A negative Row or Col is sampled
	// deterministically from the injection seed.
	PE PE
	// Bit is the corrupted product-register bit (StuckPE); negative values
	// are sampled deterministically from the injection seed.
	Bit int

	// Span is the number of consecutive MAC slots a burst corrupts
	// (BurstSEU); 0 means DefaultBurstSpan.
	Span int64

	// Region is the stressed rectangle (VoltRegion).
	Region Region
	// V is the region's supply voltage (VoltRegion).
	V float64
	// Acc is the voltage/BER model (VoltRegion); nil means volt.DNNEngine.
	Acc *volt.Accelerator
}

// WithDefaults returns the scenario with zero-valued optional fields
// replaced by the platform defaults and every "sampled from seed" negative
// stuck coordinate clamped to exactly -1, so equivalent spellings of one
// scenario canonicalize (and therefore cache) identically.
func (s Scenario) WithDefaults() Scenario {
	if s.Kind == StuckPE {
		if s.PE.Row < 0 {
			s.PE.Row = -1
		}
		if s.PE.Col < 0 {
			s.PE.Col = -1
		}
		if s.Bit < 0 {
			s.Bit = -1
		}
	}
	if s.Kind == BurstSEU && s.Span == 0 {
		s.Span = DefaultBurstSpan
	}
	if s.Kind == VoltRegion && s.Acc == nil {
		s.Acc = &volt.DNNEngine
	}
	return s
}

// Validate checks the scenario against an array geometry and the operand
// format whose product register the events flip.
func (s Scenario) Validate(a systolic.Array, f fixed.Format) error {
	switch s.Kind {
	case StuckPE:
		if s.PE.Row >= a.Rows || s.PE.Col >= a.Cols {
			return fmt.Errorf("hwfault: stuck PE (%d,%d) outside %dx%d array", s.PE.Row, s.PE.Col, a.Rows, a.Cols)
		}
		if s.Bit >= f.ProductBits() {
			return fmt.Errorf("hwfault: stuck bit %d outside %d-bit product register", s.Bit, f.ProductBits())
		}
	case BurstSEU:
		if s.Span < 0 {
			return fmt.Errorf("hwfault: burst span %d is negative", s.Span)
		}
	case VoltRegion:
		if err := s.Region.Validate(a); err != nil {
			return err
		}
		if math.IsNaN(s.V) || math.IsInf(s.V, 0) || s.V <= 0 {
			return fmt.Errorf("hwfault: region voltage %v is not a positive finite value", s.V)
		}
		if s.Acc != nil {
			if err := s.Acc.Validate(); err != nil {
				return err
			}
			if s.V > s.Acc.VNom {
				return fmt.Errorf("hwfault: region voltage %v above nominal %v", s.V, s.Acc.VNom)
			}
		}
	default:
		return fmt.Errorf("hwfault: unknown scenario kind %d", s.Kind)
	}
	return nil
}

// Stream-split labels: every scenario draw derives from the campaign's
// (seed, round) stream through fixed labels, so events are a pure function
// of campaign identity — independent of workers, shards and layer order.
const (
	seedLabel  = 0x68775345 // "hwSE": build-time PE/bit sampling
	layerLabel = 0x68774c59 // "hwLY": per-(round, layer) draws
	burstLabel = 0x68774255 // "hwBU": the round's global burst placement
)

// peCoverage maps a contiguous slot space onto a PE subset of one layer:
// slots [cum[i-1], cum[i]) belong to pes[i]. It is how uniform sampling
// over "all MACs in a region" (or its complement) finds concrete ops.
type peCoverage struct {
	pes   []PE
	cum   []int64
	total int64
}

func coverage(s *LayerSchedule, member func(PE) bool) peCoverage {
	var cov peCoverage
	for r := 0; r < s.arr.Rows; r++ {
		for c := 0; c < s.arr.Cols; c++ {
			pe := PE{Row: r, Col: c}
			if !member(pe) {
				continue
			}
			n := s.OpsOnPE(pe)
			if n == 0 {
				continue
			}
			cov.total += n
			cov.pes = append(cov.pes, pe)
			cov.cum = append(cov.cum, cov.total)
		}
	}
	return cov
}

// locate maps a slot in [0, total) to its PE and PE-local slot.
func (cov *peCoverage) locate(slot int64) (PE, int64) {
	i := sort.Search(len(cov.cum), func(i int) bool { return cov.cum[i] > slot })
	prev := int64(0)
	if i > 0 {
		prev = cov.cum[i-1]
	}
	return cov.pes[i], slot - prev
}

// Injection binds a scenario to one network's layer schedules. It is built
// once per system (sampled choices resolved from the seed at build time) and
// is safe for concurrent use: Events only reads it.
type Injection struct {
	sc    Scenario
	arr   systolic.Array
	sched []*LayerSchedule
	pbits int // product-register width the events flip bits in

	pe  PE    // resolved stuck PE
	bit uint8 // resolved stuck bit

	start []int64 // per-node first global mul index (burst layer lookup)
	total int64   // network mul ops on the array

	regionBER float64      // volt-model BER inside the region
	region    []peCoverage // per-node in-region slot spaces
	outside   []peCoverage // per-node complement slot spaces
}

// NewInjection resolves a scenario against a network's schedules: defaults
// applied, geometry validated, sampled choices (stuck PE/bit) drawn
// deterministically from seed. Every process that builds an Injection from
// the same (scenario, schedules, seed) generates identical events.
func NewInjection(sc Scenario, a systolic.Array, f fixed.Format, sched []*LayerSchedule, seed uint64) (*Injection, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(a, f); err != nil {
		return nil, err
	}
	inj := &Injection{sc: sc, arr: a, sched: sched, pbits: f.ProductBits()}
	inj.start = make([]int64, len(sched))
	for i, s := range sched {
		inj.start[i] = inj.total
		if s != nil {
			inj.total += s.Muls()
		}
	}
	switch sc.Kind {
	case StuckPE:
		r := rng.New(seed).Split(seedLabel)
		inj.pe = sc.PE
		if inj.pe.Row < 0 {
			inj.pe.Row = r.Intn(a.Rows)
		}
		if inj.pe.Col < 0 {
			inj.pe.Col = r.Intn(a.Cols)
		}
		if sc.Bit >= 0 {
			inj.bit = uint8(sc.Bit)
		} else {
			inj.bit = uint8(r.Intn(inj.pbits))
		}
	case BurstSEU:
		if inj.total == 0 {
			return nil, fmt.Errorf("hwfault: network schedules no ops on the array")
		}
	case VoltRegion:
		inj.regionBER = sc.Acc.BER(sc.V)
		inj.region = make([]peCoverage, len(sched))
		inj.outside = make([]peCoverage, len(sched))
		for i, s := range sched {
			if s == nil {
				continue
			}
			inj.region[i] = coverage(s, sc.Region.Contains)
			inj.outside[i] = coverage(s, func(pe PE) bool { return !sc.Region.Contains(pe) })
		}
	}
	return inj, nil
}

// Scenario returns the defaults-applied scenario the injection executes.
func (inj *Injection) Scenario() Scenario { return inj.sc }

// StuckAt reports the resolved (PE, bit) of a StuckPE injection.
func (inj *Injection) StuckAt() (PE, int) { return inj.pe, int(inj.bit) }

// Events generates node li's fault events for one Monte-Carlo round. round
// is the campaign's (seed, round) stream, shared across the round's nodes;
// Events derives per-layer and network-global sub-streams from it by fixed
// labels (splitting never advances the parent), so the event set is a pure
// function of (campaign seed, round, node) — bit-identical for any worker
// count, shard split or execution order.
//
// campaignBER is the round's statistical bit error rate: it governs the
// nominal background outside a VoltRegion and is ignored by the
// deterministic StuckPE and the burst process. keep is the unprotected
// multiplication fraction (1 - TMR coverage); candidate events are thinned
// by it, mirroring the statistical sampler's protection model.
//
// All events flip bits of multiplication product registers (the PE array's
// MACs), so every event is created with Operand fault.ResultReg and goes to
// the engines as is.
func (inj *Injection) Events(li int, round *rng.Stream, campaignBER, keep float64) []fault.Event {
	if li < 0 || li >= len(inj.sched) || inj.sched[li] == nil {
		return nil
	}
	if keep > 1 {
		keep = 1
	}
	if keep <= 0 {
		return nil
	}
	switch inj.sc.Kind {
	case StuckPE:
		return inj.stuckEvents(li, round, keep)
	case BurstSEU:
		return inj.burstEvents(li, round, keep)
	default:
		return inj.regionEvents(li, round, campaignBER, keep)
	}
}

func (inj *Injection) layerStream(li int, round *rng.Stream) *rng.Stream {
	return round.Split(layerLabel).Split(uint64(li))
}

// stuckEvents flips the pinned bit of every multiplication the schedule
// places on the stuck PE. With full TMR coverage gaps (keep == 1) the event
// set is deterministic — identical in every round, the signature of a
// permanent fault; partial protection thins it per round like the
// statistical sampler's uniformly re-drawn protected subset.
func (inj *Injection) stuckEvents(li int, round *rng.Stream, keep float64) []fault.Event {
	s := inj.sched[li]
	n := s.OpsOnPE(inj.pe)
	if n == 0 {
		return nil
	}
	var ls *rng.Stream
	if keep < 1 {
		ls = inj.layerStream(li, round)
	}
	events := make([]fault.Event, 0, n)
	for slot := int64(0); slot < n; slot++ {
		if ls != nil && !ls.Bernoulli(keep) {
			continue
		}
		events = append(events, fault.Event{
			Class:   fault.OpMul,
			Op:      s.MulOnPE(inj.pe, slot),
			Bit:     inj.bit,
			Operand: fault.ResultReg,
		})
	}
	return events
}

// burstEvents places one burst per round over the whole network: a global
// MAC slot is sampled (weighting PEs by occupancy), and the burst corrupts
// the following Span slots of that PE's schedule within the owning layer.
// Every node of the round derives the same placement from the round stream,
// and only the owning node emits events.
func (inj *Injection) burstEvents(li int, round *rng.Stream, keep float64) []fault.Event {
	g := round.Split(burstLabel).Int63n(inj.total)
	owner := sort.Search(len(inj.start), func(i int) bool { return inj.start[i] > g }) - 1
	for owner >= 0 && inj.sched[owner] == nil { // starts repeat across non-array nodes
		owner--
	}
	if owner != li {
		return nil
	}
	s := inj.sched[li]
	op := g - inj.start[li]
	pe := s.PEOf(op)
	slot := s.SlotOf(op)
	end := slot + inj.sc.Span
	if n := s.OpsOnPE(pe); end > n {
		end = n
	}
	ls := inj.layerStream(li, round)
	var events []fault.Event
	for ; slot < end; slot++ {
		bit := uint8(ls.Intn(inj.pbits))
		if keep < 1 && !ls.Bernoulli(keep) {
			continue
		}
		events = append(events, fault.Event{Class: fault.OpMul, Op: s.MulOnPE(pe, slot), Bit: bit, Operand: fault.ResultReg})
	}
	return events
}

// regionEvents samples two thinned Bernoulli processes over the layer's MAC
// product bits: the stressed region at the volt-model BER, the complement at
// the campaign's nominal BER — the statistical model's own Binomial-then-
// place decomposition, restricted to PE subsets.
func (inj *Injection) regionEvents(li int, round *rng.Stream, campaignBER, keep float64) []fault.Event {
	ls := inj.layerStream(li, round)
	s := inj.sched[li]
	events := inj.sampleCoverage(ls, s, &inj.region[li], inj.regionBER*keep, nil)
	return inj.sampleCoverage(ls, s, &inj.outside[li], campaignBER*keep, events)
}

func (inj *Injection) sampleCoverage(ls *rng.Stream, s *LayerSchedule, cov *peCoverage, p float64, events []fault.Event) []fault.Event {
	if cov.total == 0 || p <= 0 {
		return events
	}
	k := ls.Binomial(cov.total*int64(inj.pbits), p)
	for i := int64(0); i < k; i++ {
		pe, local := cov.locate(ls.Int63n(cov.total))
		events = append(events, fault.Event{
			Class:   fault.OpMul,
			Op:      s.MulOnPE(pe, local),
			Bit:     uint8(ls.Intn(inj.pbits)),
			Operand: fault.ResultReg,
		})
	}
	return events
}

// EventsPerRound returns the expected number of fault events one round
// generates across the network at the given campaign BER: exact for StuckPE
// (deterministic) and VoltRegion (Binomial means); for BurstSEU the span,
// an upper bound tight except when the burst start lands near the end of a
// PE's schedule. It is what the experiments use to match the statistical
// model's intensity to a hardware scenario.
func (inj *Injection) EventsPerRound(campaignBER float64) float64 {
	switch inj.sc.Kind {
	case StuckPE:
		var n int64
		for _, s := range inj.sched {
			if s != nil {
				n += s.OpsOnPE(inj.pe)
			}
		}
		return float64(n)
	case BurstSEU:
		return float64(inj.sc.Span)
	default:
		var e float64
		for i, s := range inj.sched {
			if s == nil {
				continue
			}
			e += float64(inj.region[i].total*int64(inj.pbits)) * inj.regionBER
			e += float64(inj.outside[i].total*int64(inj.pbits)) * campaignBER
		}
		return e
	}
}

// TotalMuls returns the network's array-mapped multiplication count (the
// denominator of a matched statistical BER).
func (inj *Injection) TotalMuls() int64 { return inj.total }
