package faultsim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/fault"
	"repro/internal/hwfault"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// aloneCounts returns, per campaign of cs, its per-round counts run alone in
// its own one-campaign batch, which never runs against a reference round.
func aloneCounts(r *Runner, cs []Campaign, rounds int) [][]int {
	out := make([][]int, len(cs))
	for c := range cs {
		out[c] = r.UnitCounts(context.Background(), cs[c:c+1], rounds, 0, Units(cs[c:c+1], rounds), nil)
	}
	return out
}

// checkAgainstAlone runs units [lo, hi) of batch cs on r and requires each
// count to equal its campaign's count run alone.
func checkAgainstAlone(t *testing.T, what string, r *Runner, cs []Campaign, rounds, lo, hi int, alone [][]int) {
	t.Helper()
	units := flattenUnits(cs, rounds)
	got := r.UnitCounts(context.Background(), cs, rounds, lo, hi, nil)
	for k, count := range got {
		un := units[lo+k]
		if want := alone[un.c][un.round]; count != want {
			t.Errorf("%s, units [%d, %d): campaign %d round %d counts %d, alone %d", what, lo, hi, un.c, un.round, count, want)
		}
	}
}

// TestLayerCampaignsMatchAlone is the oracle of reference rounds: every
// count of a layer-sensitivity batch, whose per-layer campaigns run as
// deltas against the baseline's rounds, equals that campaign run alone, for
// Workers 1, 2 and 3, over ranges with and without the baseline's units,
// under result and operand semantics, with and without a protection plan,
// on both engines.
func TestLayerCampaignsMatchAlone(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	const ber, rounds = 3e-9, 2
	plan := func(r *Runner) map[int]fault.Protection {
		conv := r.Net.ConvNodes()
		return map[int]fault.Protection{conv[1]: {MulFrac: 1, AddFrac: 1}, conv[4]: {MulFrac: 0.5}, conv[9]: {AddFrac: 0.7}}
	}
	for _, c := range []struct {
		name      string
		r         *Runner
		in        []fault.Census
		sem       fault.Semantics
		protected bool
	}{
		{"direct", st, stInt, fault.ResultFlip, false},
		{"direct", st, stInt, fault.OperandFlip, false},
		{"direct", st, stInt, fault.ResultFlip, true},
		{"direct", st, stInt, fault.OperandFlip, true},
		{"winograd", wg, wgInt, fault.ResultFlip, false},
		{"winograd", wg, wgInt, fault.OperandFlip, true},
	} {
		opts := Options{Semantics: c.sem, Seed: 31, Intensity: c.in}
		if c.protected {
			opts.Protection = plan(c.r)
		}
		cs := c.r.LayerCampaigns(ber, opts)
		alone := aloneCounts(withWorkers(c.r, 1), cs, rounds)
		if base := alone[0][0] + alone[0][1]; base == 2*len(c.r.Golden()) {
			t.Fatalf("%s/%v: the baseline agrees everywhere, so no layer can differ", c.name, c.sem)
		}
		total := Units(cs, rounds)
		for _, workers := range []int{1, 2, 3} {
			r := withWorkers(c.r, workers)
			what := fmt.Sprintf("%s/%v/protected=%v/workers=%d", c.name, c.sem, c.protected, workers)
			for _, rg := range [][2]int{{0, total}, {rounds, total}, {1, total / 2}} {
				checkAgainstAlone(t, what, r, cs, rounds, rg[0], rg[1], alone)
			}
		}
	}
}

// TestMixedBatchMatchesAlone: in a batch where only some campaigns qualify
// — others differ from the first in seed, BER, operation class or
// semantics — every count still equals its campaign's alone, whether it ran
// against the first campaign's rounds or against the golden run.
func TestMixedBatchMatchesAlone(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	conv := st.Net.ConvNodes()
	const ber, rounds = 3e-9, 3
	opts := Options{Seed: 5, Intensity: stInt, FaultFree: map[int]bool{conv[0]: true}}
	other := func(edit func(o *Options)) Options {
		o := opts
		o.FaultFree = map[int]bool{conv[0]: true}
		edit(&o)
		return o
	}
	cs := []Campaign{
		{BER: ber, Opts: opts},
		{BER: ber, Opts: other(func(o *Options) { o.FaultFree[conv[2]] = true })},
		{BER: ber, Opts: other(func(o *Options) { o.Seed = 6 })},
		{BER: 1e-9, Opts: opts},
		{BER: ber, Opts: other(func(o *Options) { delete(o.FaultFree, conv[0]) })},
		{BER: ber, Opts: other(func(o *Options) { o.MulFaultFree = true })},
		{BER: ber, Opts: other(func(o *Options) { o.Semantics = fault.OperandFlip })},
		{BER: ber, Opts: opts},
		{BER: ber, Opts: other(func(o *Options) { o.Protection = map[int]fault.Protection{conv[5]: {MulFrac: 1}} })},
	}
	alone := aloneCounts(withWorkers(st, 1), cs, rounds)
	total := Units(cs, rounds)
	for _, workers := range []int{1, 3} {
		for _, rg := range [][2]int{{0, total}, {2, total - 4}} {
			checkAgainstAlone(t, fmt.Sprintf("workers=%d", workers), withWorkers(st, workers), cs, rounds, rg[0], rg[1], alone)
		}
	}
}

// TestReferenceRoundsPlanned pins which units a call runs against a
// reference: none for a sweep, a full runner or neuron flips, and, for a
// layer batch, every unit of a round that has at least one per-layer unit
// in the range — the baseline's unit of a round without one runs against
// the golden run.
func TestReferenceRoundsPlanned(t *testing.T) {
	st, _, stInt, _ := testRig(t, 2)
	opts := Options{Seed: 1, Intensity: stInt}
	layers := st.LayerCampaigns(1e-9, opts)
	const rounds = 3
	units := flattenUnits(layers, rounds)
	if st.references(SweepCampaigns([]float64{1e-9, 1e-8}, opts), units[:2*rounds]) != nil {
		t.Error("a sweep batch planned reference rounds")
	}
	if st.with(Exec{Full: true}).references(layers, units) != nil {
		t.Error("a full runner planned reference rounds")
	}
	neuron := opts
	neuron.Semantics = fault.NeuronFlip
	if st.references(st.LayerCampaigns(1e-9, neuron), units) != nil {
		t.Error("a neuron-flip batch planned reference rounds")
	}
	if st.references(layers, units[:rounds]) != nil {
		t.Error("the baseline's units alone planned reference rounds")
	}

	// The baseline's rounds 0-2, then the first layer's round 0.
	refs := st.references(layers, units[:rounds+1])
	for k, want := range []bool{true, false, false, true} {
		if got := refs.used(units[k]); got != want {
			t.Errorf("unit %d (campaign %d round %d): used %v, want %v", k, units[k].c, units[k].round, got, want)
		}
	}
	refs = st.references(layers, units)
	var order []int
	for k := range units {
		order = append(order, units[refs.unit(k)].round)
	}
	if !slices.IsSorted(order) {
		t.Errorf("units run in round order %v, want round-major", order)
	}
	for r := range refs.rounds {
		if got := refs.rounds[r].users; got != len(layers) {
			t.Errorf("round %d has %d users, want %d", r, got, len(layers))
		}
	}
}

// TestReferenceRoundsReleased: a call captures each round's reference once,
// whatever its workers, and no runner or pooled worker holds any of it
// after the call — not even the copied activations a pooled context last
// read.
func TestReferenceRoundsReleased(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	cs := st.LayerCampaigns(1e-8, Options{Seed: 8, Intensity: stInt})
	const rounds = 3
	for _, workers := range []int{1, 2, 3} {
		r := withWorkers(st, workers)
		golden := r.goldenPlane(&worker{ec: r.newContext()})
		var (
			mu       sync.Mutex
			captured int
			copies   []weak.Pointer[tensor.QTensor]
		)
		testHookCapture = func(p *nn.Plane) {
			mu.Lock()
			defer mu.Unlock()
			captured++
			for i := range r.Net.Nodes {
				if act := p.Act(i); act != golden.Act(i) {
					copies = append(copies, weak.Make(act))
				}
			}
		}
		r.UnitCounts(context.Background(), cs, rounds, 0, Units(cs, rounds), nil)
		testHookCapture = nil
		if captured != rounds {
			t.Errorf("workers=%d: %d captures for %d rounds", workers, captured, rounds)
		}
		if len(copies) == 0 {
			t.Fatalf("workers=%d: the reference rounds copied nothing, so this test shows nothing", workers)
		}
		runtime.GC() // one cycle: pooled workers stay in the pool
		for _, p := range copies {
			if p.Value() != nil {
				t.Errorf("workers=%d: an activation of a reference round outlived its call", workers)
				break
			}
		}
		runtime.KeepAlive(r)
		runtime.KeepAlive(golden)
	}
}

// TestDifferingNodesCoversOptions: every Options field either takes part in
// the qualification rule — changing it alone disqualifies a campaign, or
// marks exactly the nodes it changes — or is listed as not affecting
// events. A new field fails here until it is placed.
func TestDifferingNodesCoversOptions(t *testing.T) {
	const nodes = 8
	intensity := make([]fault.Census, nodes)
	for i := range intensity {
		intensity[i] = fault.Census{Mul: int64(10 + i), Add: int64(20 + i)}
	}
	hw := &hwfault.Injection{}
	base := func() Options {
		return Options{
			Seed: 3, Intensity: slices.Clone(intensity), HW: hw,
			FaultFree:  map[int]bool{2: true},
			Protection: map[int]fault.Protection{4: {MulFrac: 0.5}},
		}
	}
	// edit changes one field of o and returns the nodes at which the result
	// differs from base, or nil when it must not qualify.
	edits := map[string]func(o *Options) []int{
		"Semantics":    func(o *Options) []int { o.Semantics = fault.OperandFlip; return nil },
		"Seed":         func(o *Options) []int { o.Seed++; return nil },
		"Intensity":    func(o *Options) []int { o.Intensity[5].Mul++; return nil },
		"MulFaultFree": func(o *Options) []int { o.MulFaultFree = true; return nil },
		"AddFaultFree": func(o *Options) []int { o.AddFaultFree = true; return nil },
		"HW":           func(o *Options) []int { o.HW = &hwfault.Injection{}; return nil },
		"FaultFree":    func(o *Options) []int { o.FaultFree = map[int]bool{2: true, 6: true, 99: true}; return []int{6} },
		"Protection": func(o *Options) []int {
			o.Protection = map[int]fault.Protection{4: {MulFrac: 0.5, AddFrac: 0.1}, 1: {MulFrac: 1}}
			return []int{1, 4}
		},
	}
	notEvents := map[string]func(o *Options){
		// Read only under neuron-flip semantics, which never qualify.
		"NeuronIntensity": func(o *Options) { o.NeuronIntensity = []int64{1, 2, 3} },
	}
	typ := reflect.TypeFor[Options]()
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		_, compared := edits[name]
		_, ignored := notEvents[name]
		if compared == ignored {
			t.Errorf("Options.%s: compared %v, listed as not affecting events %v; place it in exactly one", name, compared, ignored)
		}
	}

	ref := Campaign{BER: 1e-9, Opts: base()}
	if d := differingNodes(&ref, &Campaign{BER: 1e-9, Opts: base()}, nodes); d == nil || slices.Contains(d, true) {
		t.Errorf("an identical campaign: differing nodes %v, want none", d)
	}
	if differingNodes(&ref, &Campaign{BER: 2e-9, Opts: base()}, nodes) != nil {
		t.Error("a campaign at another BER qualified")
	}
	for name, edit := range edits {
		o := base()
		want := edit(&o)
		got := differingNodes(&ref, &Campaign{BER: 1e-9, Opts: o}, nodes)
		switch {
		case want == nil && got != nil:
			t.Errorf("%s: a changed campaign qualified", name)
		case want != nil && got == nil:
			t.Errorf("%s: the campaign did not qualify", name)
		case want != nil:
			var marked []int
			for li, d := range got {
				if d {
					marked = append(marked, li)
				}
			}
			if !slices.Equal(marked, want) {
				t.Errorf("%s: differing nodes %v, want %v", name, marked, want)
			}
		}
	}
	for name, edit := range notEvents {
		o := base()
		edit(&o)
		if d := differingNodes(&ref, &Campaign{BER: 1e-9, Opts: o}, nodes); d == nil || slices.Contains(d, true) {
			t.Errorf("%s: changing it alone gave differing nodes %v, want none", name, d)
		}
	}
	neuron := ref
	neuron.Opts.Semantics = fault.NeuronFlip
	if differingNodes(&neuron, &neuron, nodes) != nil {
		t.Error("a neuron-flip campaign qualified")
	}
}
