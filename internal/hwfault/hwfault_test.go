package hwfault

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/systolic"
	"repro/internal/tensor"
	"repro/internal/volt"
	"repro/internal/winograd"
)

// smallArray keeps exhaustive bijection walks cheap while still exercising
// fold wraparound (reduction depths and channel counts exceed the array).
var smallArray = systolic.Array{Rows: 4, Cols: 4, VectorLanes: 4}

func shp(n, c, h, w int) tensor.Shape { return tensor.Shape{N: n, C: c, H: h, W: w} }

func schedules(t *testing.T, kind nn.EngineKind, a systolic.Array, batch int) (*models.Arch, []*LayerSchedule) {
	t.Helper()
	arch, err := models.ByName("vgg19", models.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return arch, NetworkSchedules(a, arch, kind, winograd.F2, batch)
}

// TestMulsMatchEngineCensus: the schedule's mul space must be exactly the
// engine census's — otherwise scenario events would index outside the
// replay contract. NetworkSchedules re-walks the same per-node lowering
// (engine-selection predicate included) as models.Census and nn.NewConv, so
// this is checked over the whole zoo and both engines: any divergence in
// the winograd-eligibility rule or the batch fold shows up here. The
// runtime census at batch b is the geometry census times b (every census
// term is linear in N).
func TestMulsMatchEngineCensus(t *testing.T) {
	const batch = 3
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		arch, err := models.ByName(model, models.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
			for _, tile := range []*winograd.Tile{winograd.F2, winograd.F4} {
				sched := NetworkSchedules(systolic.DNNEngine16, arch, kind, tile, batch)
				census := models.Census(arch, kind, tile)
				for i, s := range sched {
					if s == nil {
						if k := arch.Ops[i].Kind; k == "conv" || k == "fc" {
							t.Errorf("%s/%v node %d (%s) has no schedule", model, kind, i, k)
						}
						continue
					}
					if want := census[i].Mul * batch; s.Muls() != want {
						t.Errorf("%s/%v/%s node %d (%s): schedule muls %d != census %d",
							model, kind, tile.Name, i, arch.Ops[i].Name, s.Muls(), want)
					}
				}
			}
		}
	}
}

// TestScheduleBijection: over every PE, the slots enumerate distinct mul
// indices covering the whole census exactly once, and PEOf/SlotOf invert
// MulOnPE — the property every scenario generator rests on.
func TestScheduleBijection(t *testing.T) {
	cases := []struct {
		name string
		s    *LayerSchedule
	}{
		{"direct", newDirectSchedule(smallArray, shp(2, 5, 6, 6), 7, 3, 3, 1, 1)},
		{"direct-stride", newDirectSchedule(smallArray, shp(1, 3, 9, 9), 5, 5, 5, 2, 2)},
		{"fc", newDirectSchedule(smallArray, shp(3, 11, 1, 1), 6, 1, 1, 1, 0)},
		{"winograd", newWinogradSchedule(smallArray, shp(2, 5, 6, 6), 7, 3, 3, 1, 1, winograd.F2)},
		{"winograd-dwm", newWinogradSchedule(smallArray, shp(1, 3, 9, 9), 5, 5, 5, 2, 2, winograd.F2)},
	}
	for _, tc := range cases {
		seen := make(map[int64]PE, tc.s.Muls())
		var covered int64
		for r := 0; r < smallArray.Rows; r++ {
			for c := 0; c < smallArray.Cols; c++ {
				pe := PE{Row: r, Col: c}
				n := tc.s.OpsOnPE(pe)
				covered += n
				for slot := int64(0); slot < n; slot++ {
					op := tc.s.MulOnPE(pe, slot)
					if op < 0 || op >= tc.s.Muls() {
						t.Fatalf("%s: PE %v slot %d -> op %d outside [0,%d)", tc.name, pe, slot, op, tc.s.Muls())
					}
					if prev, dup := seen[op]; dup {
						t.Fatalf("%s: op %d mapped from both %v and %v", tc.name, op, prev, pe)
					}
					seen[op] = pe
					if got := tc.s.PEOf(op); got != pe {
						t.Fatalf("%s: PEOf(%d) = %v, want %v", tc.name, op, got, pe)
					}
					if got := tc.s.SlotOf(op); got != slot {
						t.Fatalf("%s: SlotOf(%d) = %d, want %d", tc.name, op, got, slot)
					}
				}
			}
		}
		if covered != tc.s.Muls() {
			t.Errorf("%s: PEs cover %d ops, census has %d", tc.name, covered, tc.s.Muls())
		}
	}
}

// TestRegionCoverage: region + complement coverages partition the census.
func TestRegionCoverage(t *testing.T) {
	s := newWinogradSchedule(smallArray, shp(2, 6, 8, 8), 9, 3, 3, 1, 1, winograd.F2)
	rg := Region{Row0: 1, Col0: 0, Row1: 2, Col1: 1}
	in := coverage(s, rg.Contains)
	out := coverage(s, func(pe PE) bool { return !rg.Contains(pe) })
	if in.total+out.total != s.Muls() {
		t.Fatalf("coverage split %d + %d != %d", in.total, out.total, s.Muls())
	}
	for slot := int64(0); slot < in.total; slot++ {
		pe, local := in.locate(slot)
		if !rg.Contains(pe) {
			t.Fatalf("region slot %d landed outside the region at %v", slot, pe)
		}
		if op := s.MulOnPE(pe, local); s.PEOf(op) != pe {
			t.Fatalf("region slot %d round-trips to PE %v", slot, s.PEOf(op))
		}
	}
}

func injection(t *testing.T, sc Scenario, kind nn.EngineKind, seed uint64) (*Injection, []*LayerSchedule) {
	t.Helper()
	_, sched := schedules(t, kind, systolic.DNNEngine16, 2)
	inj, err := NewInjection(sc, systolic.DNNEngine16, fixed.Int16, sched, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj, sched
}

// eventsOf collects one round's events across all nodes.
func eventsOf(inj *Injection, round uint64, ber, keep float64) map[int][]fault.Event {
	r := rng.New(11).Split(round)
	out := map[int][]fault.Event{}
	for li := range inj.sched {
		if evs := inj.Events(li, r, ber, keep); len(evs) > 0 {
			out[li] = evs
		}
	}
	return out
}

// requireResultFlips: every scenario event is a product-register flip of a
// multiplication, marked as such where it is created.
func requireResultFlips(t *testing.T, got map[int][]fault.Event) {
	t.Helper()
	for li, evs := range got {
		for _, ev := range evs {
			if ev.Class != fault.OpMul || ev.Operand != fault.ResultReg {
				t.Fatalf("node %d: event %+v is not a mul result flip", li, ev)
			}
		}
	}
}

// TestStuckPEEvents: a stuck PE corrupts exactly its scheduled ops, at the
// pinned bit, identically in every round — and node order must not matter.
func TestStuckPEEvents(t *testing.T) {
	sc := Scenario{Kind: StuckPE, PE: PE{Row: 0, Col: 0}, Bit: 20}
	for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
		inj, sched := injection(t, sc, kind, 1)
		got := eventsOf(inj, 0, 1e-9, 1)
		if len(got) == 0 {
			t.Fatalf("%v: stuck PE (0,0) produced no events", kind)
		}
		requireResultFlips(t, got)
		var n int64
		for li, evs := range got {
			s := sched[li]
			want := s.OpsOnPE(PE{Row: 0, Col: 0})
			if int64(len(evs)) != want {
				t.Errorf("%v node %d: %d events, want %d", kind, li, len(evs), want)
			}
			n += int64(len(evs))
			for _, ev := range evs {
				if ev.Class != fault.OpMul || ev.Bit != 20 {
					t.Fatalf("%v node %d: event %+v not a bit-20 mul flip", kind, li, ev)
				}
				if pe := s.PEOf(ev.Op); pe != (PE{Row: 0, Col: 0}) {
					t.Fatalf("%v node %d: op %d maps to %v, not the stuck PE", kind, li, ev.Op, pe)
				}
			}
		}
		if want := inj.EventsPerRound(1e-9); float64(n) != want {
			t.Errorf("%v: %d events, EventsPerRound says %v", kind, n, want)
		}
		// Permanent fault: every round identical.
		again := eventsOf(inj, 7, 1e-9, 1)
		if len(again) != len(got) {
			t.Fatalf("%v: round changed the stuck event set", kind)
		}
		for li, evs := range got {
			for i, ev := range evs {
				if again[li][i] != ev {
					t.Fatalf("%v node %d: stuck events differ across rounds", kind, li)
				}
			}
		}
	}
}

// TestStuckPESampled: negative PE/bit coordinates resolve deterministically
// from the seed, and different seeds pick different elements.
func TestStuckPESampled(t *testing.T) {
	sc := Scenario{Kind: StuckPE, PE: PE{Row: -1, Col: -1}, Bit: -1}
	a, _ := injection(t, sc, nn.Direct, 5)
	b, _ := injection(t, sc, nn.Direct, 5)
	peA, bitA := a.StuckAt()
	peB, bitB := b.StuckAt()
	if peA != peB || bitA != bitB {
		t.Fatalf("same seed resolved different stuck elements: %v/%d vs %v/%d", peA, bitA, peB, bitB)
	}
	if peA.Row < 0 || peA.Row >= 16 || peA.Col < 0 || peA.Col >= 16 || bitA < 0 || bitA >= 32 {
		t.Fatalf("sampled stuck element %v bit %d out of range", peA, bitA)
	}
	differs := false
	for seed := uint64(6); seed < 16; seed++ {
		c, _ := injection(t, sc, nn.Direct, seed)
		if pe, bit := c.StuckAt(); pe != peA || bit != bitA {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("ten different seeds all resolved the same stuck element")
	}
}

// TestBurstEvents: exactly one (PE, window) per round across the whole
// network, contiguous on its PE's schedule, varying with the round.
func TestBurstEvents(t *testing.T) {
	sc := Scenario{Kind: BurstSEU, Span: 16}
	inj, sched := injection(t, sc, nn.Winograd, 3)
	rounds := map[int]bool{}
	for round := uint64(0); round < 8; round++ {
		got := eventsOf(inj, round, 1e-9, 1)
		if len(got) != 1 {
			t.Fatalf("round %d: burst hit %d nodes, want exactly 1", round, len(got))
		}
		requireResultFlips(t, got)
		for li, evs := range got {
			rounds[li] = true
			s := sched[li]
			if len(evs) == 0 || len(evs) > 16 {
				t.Fatalf("round %d node %d: burst size %d outside (0,16]", round, li, len(evs))
			}
			pe := s.PEOf(evs[0].Op)
			base := s.SlotOf(evs[0].Op)
			for i, ev := range evs {
				if got := s.PEOf(ev.Op); got != pe {
					t.Fatalf("round %d: burst spans PEs %v and %v", round, pe, got)
				}
				if slot := s.SlotOf(ev.Op); slot != base+int64(i) {
					t.Fatalf("round %d: burst not contiguous: slot %d at position %d (base %d)", round, slot, i, base)
				}
			}
		}
	}
	if len(rounds) < 2 {
		t.Errorf("8 rounds placed every burst in the same node %v; placement not varying", rounds)
	}
}

// TestVoltRegionEvents: region ops draw at the volt-model BER, the rest at
// the campaign BER. With a safe region voltage and zero background there are
// no events at all; with a stressed region and zero background every event
// lands inside the region.
func TestVoltRegionEvents(t *testing.T) {
	rg := Region{Row0: 0, Col0: 0, Row1: 7, Col1: 7}
	safe := Scenario{Kind: VoltRegion, Region: rg, V: volt.DNNEngine.VSafe}
	inj, _ := injection(t, safe, nn.Direct, 1)
	if got := eventsOf(inj, 0, 0, 1); len(got) != 0 {
		t.Fatalf("safe-voltage region with zero background produced events: %v", got)
	}

	hot := Scenario{Kind: VoltRegion, Region: rg, V: 0.72}
	inj, sched := injection(t, hot, nn.Direct, 1)
	got := eventsOf(inj, 0, 0, 1)
	if len(got) == 0 {
		t.Fatal("stressed region at 0.72V produced no events")
	}
	requireResultFlips(t, got)
	for li, evs := range got {
		for _, ev := range evs {
			if pe := sched[li].PEOf(ev.Op); !rg.Contains(pe) {
				t.Fatalf("node %d: event at %v escaped the stressed region", li, pe)
			}
		}
	}
}

// TestEventsDeterministic: same (seed, round) -> identical events for every
// scenario; protection keep == 0 silences everything.
func TestEventsDeterministic(t *testing.T) {
	scs := []Scenario{
		{Kind: StuckPE, PE: PE{Row: 2, Col: 3}, Bit: 10},
		{Kind: BurstSEU},
		{Kind: VoltRegion, Region: Region{Row1: 3, Col1: 3}, V: 0.74},
	}
	for _, sc := range scs {
		inj, _ := injection(t, sc, nn.Winograd, 9)
		a := eventsOf(inj, 4, 1e-9, 0.5)
		b := eventsOf(inj, 4, 1e-9, 0.5)
		if len(a) != len(b) {
			t.Fatalf("%v: replay changed the node set", sc.Kind)
		}
		for li, evs := range a {
			if len(b[li]) != len(evs) {
				t.Fatalf("%v node %d: replay changed the event count", sc.Kind, li)
			}
			for i := range evs {
				if evs[i] != b[li][i] {
					t.Fatalf("%v node %d: replay changed event %d", sc.Kind, li, i)
				}
			}
		}
		if got := eventsOf(inj, 4, 1e-9, 0); len(got) != 0 {
			t.Errorf("%v: fully protected round still produced events", sc.Kind)
		}
	}
}

// TestScenarioValidation pins the rejection surface.
func TestScenarioValidation(t *testing.T) {
	a := systolic.DNNEngine16
	bad := map[string]Scenario{
		"unknown kind":    {},
		"pe row high":     {Kind: StuckPE, PE: PE{Row: 16}},
		"pe col high":     {Kind: StuckPE, PE: PE{Col: 16}},
		"bit high":        {Kind: StuckPE, Bit: 32},
		"negative span":   {Kind: BurstSEU, Span: -1},
		"region inverted": {Kind: VoltRegion, Region: Region{Row0: 3, Row1: 1}, V: 0.8},
		"region outside":  {Kind: VoltRegion, Region: Region{Row1: 16, Col1: 3}, V: 0.8},
		"zero voltage":    {Kind: VoltRegion, Region: Region{Row1: 1, Col1: 1}},
		"high voltage":    {Kind: VoltRegion, Region: Region{Row1: 1, Col1: 1}, V: 1.2},
	}
	for name, sc := range bad {
		if err := sc.WithDefaults().Validate(a, fixed.Int16); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, sc)
		}
	}
	good := []Scenario{
		{Kind: StuckPE, PE: PE{Row: -1, Col: -1}, Bit: -1},
		{Kind: StuckPE, PE: PE{Row: 15, Col: 15}, Bit: 31},
		{Kind: BurstSEU},
		{Kind: VoltRegion, Region: Region{Row1: 15, Col1: 15}, V: volt.DNNEngine.VMin},
	}
	for _, sc := range good {
		if err := sc.WithDefaults().Validate(a, fixed.Int16); err != nil {
			t.Errorf("Validate rejected %+v: %v", sc, err)
		}
	}
}
