package faultsim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
		cs := LayerCampaigns(c.r.Net.ConvNodes(), ber, opts)
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
	layers := LayerCampaigns(st.Net.ConvNodes(), 1e-9, opts)
	const rounds = 3
	units := flattenUnits(layers, rounds)
	sweep := SweepCampaigns([]float64{1e-9, 1e-8}, opts)
	if st.references(sweep, flattenUnits(sweep, rounds), 0, 2*rounds) != nil {
		t.Error("a sweep batch planned reference rounds")
	}
	if st.with(Exec{Full: true}).references(layers, units, 0, len(units)) != nil {
		t.Error("a full runner planned reference rounds")
	}
	neuron := opts
	neuron.Semantics = fault.NeuronFlip
	if st.references(LayerCampaigns(st.Net.ConvNodes(), 1e-9, neuron), units, 0, len(units)) != nil {
		t.Error("a neuron-flip batch planned reference rounds")
	}
	if st.references(layers, units, 0, rounds) != nil {
		t.Error("the baseline's units alone planned reference rounds")
	}

	// The baseline's rounds 0-2, then the first layer's round 0: a later
	// call may need round 0, and only round 0 has users.
	refs := st.references(layers, units, 0, rounds+1)
	for k, want := range []bool{true, false, false, true} {
		if got := refs.used(units[k]); got != want {
			t.Errorf("unit %d (campaign %d round %d): used %v, want %v", k, units[k].c, units[k].round, got, want)
		}
	}
	if !refs.rounds[0].keep || refs.rounds[1].keep || refs.rounds[2].keep {
		t.Errorf("rounds offered to the store %v %v %v, want only round 0", refs.rounds[0].keep, refs.rounds[1].keep, refs.rounds[2].keep)
	}
	refs = st.references(layers, units, 0, len(units))
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
		if refs.rounds[r].keep {
			t.Errorf("round %d: a call that runs all its users offered it to the store", r)
		}
	}
}

// TestReferenceRoundsReleased: a call captures each round's reference once,
// whatever its workers, and when it runs all of a round's users the runner
// keeps none of it after the call — not even the copied activations an
// idle context last read.
func TestReferenceRoundsReleased(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	cs := LayerCampaigns(st.Net.ConvNodes(), 1e-8, Options{Seed: 8, Intensity: stInt})
	const rounds = 3
	for _, workers := range []int{1, 2, 3} {
		r := withWorkers(st, workers)
		golden := r.plane
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
		runtime.GC()
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

// coordRanges returns the unit ranges the dist coordinator cuts a phase of
// total units into for live workers: about two per worker.
func coordRanges(total, live int) [][2]int {
	size := (total + 2*live - 1) / (2 * live)
	var out [][2]int
	for lo := 0; lo < total; lo += size {
		out = append(out, [2]int{lo, min(lo+size, total)})
	}
	return out
}

// TestLayerRangesMatchWhole is the oracle of kept reference rounds: a layer
// batch run as the coordinator's ranges for 2 and 3 live workers through one
// runner gives exactly the counts of the whole range, at Workers 1, 2 and 3,
// whether the ranges run forward, in reverse or interleaved (the ranges
// without the baseline's units first), and with a sweep batch or a range of
// another seed's layer batch run on the runner between any two ranges.
func TestLayerRangesMatchWhole(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	const ber, rounds = 3e-9, 2
	opts := Options{Seed: 31, Intensity: stInt}
	cs := LayerCampaigns(st.Net.ConvNodes(), ber, opts)
	other := opts
	other.Seed = 32
	others := LayerCampaigns(st.Net.ConvNodes(), ber, other)
	sweep := SweepCampaigns([]float64{1e-9, ber}, opts)
	total, half := Units(cs, rounds), Units(others, rounds)/2
	serial := withWorkers(st, 1)
	whole := serial.UnitCounts(context.Background(), cs, rounds, 0, total, nil)
	othersWhole := serial.UnitCounts(context.Background(), others, rounds, 0, half, nil)
	sweepWhole := serial.UnitCounts(context.Background(), sweep, rounds, 0, Units(sweep, rounds), nil)
	if !slices.ContainsFunc(whole, func(n int) bool { return n != len(st.Golden()) }) {
		t.Fatal("every unit agrees everywhere, so no reference round can show")
	}
	for _, live := range []int{2, 3} {
		ranges := coordRanges(total, live)
		var forward, reverse, interleaved []int
		for i := range ranges {
			forward = append(forward, i)
			reverse = append(reverse, len(ranges)-1-i)
		}
		for _, first := range []int{1, 0} {
			for i := first; i < len(ranges); i += 2 {
				interleaved = append(interleaved, i)
			}
		}
		for _, workers := range []int{1, 2, 3} {
			for _, order := range []struct {
				name string
				idx  []int
			}{{"forward", forward}, {"reverse", reverse}, {"interleaved", interleaved}} {
				what := fmt.Sprintf("live=%d workers=%d %s", live, workers, order.name)
				r := withWorkers(st, workers)
				got := make([]int, total)
				for k, i := range order.idx {
					rg := ranges[i]
					copy(got[rg[0]:], r.UnitCounts(context.Background(), cs, rounds, rg[0], rg[1], nil))
					if k%2 == 0 {
						if c := r.UnitCounts(context.Background(), sweep, rounds, 0, Units(sweep, rounds), nil); !slices.Equal(c, sweepWhole) {
							t.Errorf("%s: the sweep between ranges counts %v, alone %v", what, c, sweepWhole)
						}
					} else if c := r.UnitCounts(context.Background(), others, rounds, 0, half, nil); !slices.Equal(c, othersWhole) {
						t.Errorf("%s: seed 32's range between ranges counts %v, on a fresh runner %v", what, c, othersWhole)
					}
				}
				if !slices.Equal(got, whole) {
					t.Errorf("%s: ranges count %v, whole %v", what, got, whole)
				}
			}
		}
	}
}

// TestSplitCapturesEachRoundOnce: two runners running the coordinator's
// 2-worker ranges of a layer batch as the fleet's two workers do — ranges 0
// and 2 on one, 1 and 3 on the other — capture each round once per runner,
// 4 captures for 2 rounds, where capturing once per call took 8. Release
// makes the next range capture its rounds again.
func TestSplitCapturesEachRoundOnce(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	const rounds = 2
	cs := LayerCampaigns(st.Net.ConvNodes(), 3e-9, Options{Seed: 8, Intensity: stInt})
	ranges := coordRanges(Units(cs, rounds), 2)
	if len(ranges) != 4 {
		t.Fatalf("the 2-worker split has %d ranges, want 4", len(ranges))
	}
	var captures atomic.Int64
	testHookCapture = func(*nn.Plane) { captures.Add(1) }
	defer func() { testHookCapture = nil }()
	runners := []*Runner{withWorkers(st, 1), withWorkers(st, 1)}
	for i, rg := range ranges {
		runners[i%2].UnitCounts(context.Background(), cs, rounds, rg[0], rg[1], nil)
	}
	if n := captures.Load(); n != 2*rounds {
		t.Errorf("the 2-worker split captured %d rounds, want %d", n, 2*rounds)
	}
	captures.Store(0)
	runners[0].Release()
	runners[0].UnitCounts(context.Background(), cs, rounds, ranges[2][0], ranges[2][1], nil)
	if n := captures.Load(); n != rounds {
		t.Errorf("a range after Release captured %d rounds, want %d", n, rounds)
	}
}

// TestConcurrentRangesAndRelease: the coordinator's 3-worker ranges of a
// layer batch run concurrently on one runner, some twice, while another
// goroutine releases the runner, give the counts of the whole range — kept
// rounds are found, offered and dropped from several goroutines at once
// (run it under -race).
func TestConcurrentRangesAndRelease(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	const rounds = 2
	cs := LayerCampaigns(st.Net.ConvNodes(), 3e-9, Options{Seed: 31, Intensity: stInt})
	total := Units(cs, rounds)
	whole := withWorkers(st, 1).UnitCounts(context.Background(), cs, rounds, 0, total, nil)
	r := withWorkers(st, 2)
	ranges := coordRanges(total, 3)
	var wg sync.WaitGroup
	for i := range 2 * len(ranges) {
		rg := ranges[i%len(ranges)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := r.UnitCounts(context.Background(), cs, rounds, rg[0], rg[1], nil); !slices.Equal(got, whole[rg[0]:rg[1]]) {
				t.Errorf("units [%d, %d): counts %v, whole %v", rg[0], rg[1], got, whole[rg[0]:rg[1]])
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 3 {
			r.Release()
			runtime.Gosched()
		}
	}()
	wg.Wait()
}

// holds reports whether r holds any working state that Release frees.
func holds(r *Runner) bool {
	r.planeMu.Lock()
	plane := r.plane != nil
	r.planeMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return plane || len(r.idle) > 0 || len(r.store.rounds) > 0
}

// TestRunnerReleaseFreesState: between calls a runner keeps its idle
// contexts, its golden plane and the reference rounds a partial range of a
// layer batch captured; after Release and one GC none of them — nor any
// activation a kept round copied — is reachable, and the next call captures
// them again and gives the same counts.
func TestRunnerReleaseFreesState(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	const rounds = 2
	cs := LayerCampaigns(st.Net.ConvNodes(), 1e-8, Options{Seed: 8, Intensity: stInt})
	half := Units(cs, rounds) / 2
	r := withWorkers(st, 2)
	want := r.UnitCounts(context.Background(), cs, rounds, 0, half, nil)
	var alive []func() bool
	track := func(p weak.Pointer[tensor.QTensor]) { alive = append(alive, func() bool { return p.Value() != nil }) }
	func() { // scoped, so the GC below sees no strong reference of ours
		if len(r.idle) == 0 || r.plane == nil || len(r.store.rounds) != rounds {
			t.Fatalf("the runner keeps %d contexts, plane %v and %d rounds, want contexts, a plane and %d rounds",
				len(r.idle), r.plane != nil, len(r.store.rounds), rounds)
		}
		for _, ec := range r.idle {
			p := weak.Make(ec)
			alive = append(alive, func() bool { return p.Value() != nil })
		}
		planes := []*nn.Plane{r.plane}
		for _, k := range r.store.rounds {
			planes = append(planes, k.plane)
			for i := range r.Net.Nodes {
				if act := k.plane.Act(i); act != r.plane.Act(i) {
					track(weak.Make(act))
				}
			}
		}
		for _, pl := range planes {
			p := weak.Make(pl)
			alive = append(alive, func() bool { return p.Value() != nil })
		}
	}()
	r.Release()
	if holds(r) {
		t.Error("a released runner holds working state")
	}
	runtime.GC()
	for i, a := range alive {
		if a() {
			t.Errorf("working state %d of %d is reachable after Release and one GC", i, len(alive))
		}
	}
	if got := r.UnitCounts(context.Background(), cs, rounds, 0, half, nil); !slices.Equal(got, want) {
		t.Errorf("after Release: counts %v, before %v", got, want)
	}
	if !holds(r) {
		t.Error("a call after Release built no working state")
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

	// The runner's kept rounds go by the same rule: a round kept for ref
	// serves no campaign that differs from it in a field placed above, and
	// its key is a copy that the caller's later edits do not move.
	store := roundStore{rounds: []*keptRound{{ref: cloneCampaign(&ref), round: 1}}}
	if store.find(&Campaign{BER: 1e-9, Opts: base()}, 1, nodes) == nil {
		t.Error("the store missed a round kept for an identical campaign")
	}
	if store.find(&Campaign{BER: 1e-9, Opts: base()}, 0, nodes) != nil {
		t.Error("the store served a round of another round index")
	}
	if store.find(&Campaign{BER: 2e-9, Opts: base()}, 1, nodes) != nil {
		t.Error("the store served a round kept at another BER")
	}
	for name, edit := range edits {
		o := base()
		edit(&o)
		if store.find(&Campaign{BER: 1e-9, Opts: o}, 1, nodes) != nil {
			t.Errorf("%s: the store served a round kept for another campaign", name)
		}
	}
	ref.Opts.FaultFree[6] = true
	ref.Opts.Intensity[0].Mul++
	if store.find(&Campaign{BER: 1e-9, Opts: base()}, 1, nodes) == nil {
		t.Error("the kept key changed with the caller's maps and slices")
	}
}
