package faultsim

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fault"
)

func boolPtr(b bool) *bool { return &b }

// TestDeltaEnabledResolution pins the option semantics: nil means on, an
// explicit false forces full execution, and neuron-flip campaigns always run
// the full path regardless of the flag (their in-place corruption is not
// located by the event stream).
func TestDeltaEnabledResolution(t *testing.T) {
	cases := []struct {
		opts Options
		want bool
	}{
		{Options{}, true},
		{Options{DeltaExec: boolPtr(true)}, true},
		{Options{DeltaExec: boolPtr(false)}, false},
		{Options{Semantics: fault.NeuronFlip}, false},
		{Options{Semantics: fault.NeuronFlip, DeltaExec: boolPtr(true)}, false},
		{Options{Semantics: fault.OperandFlip}, true},
	}
	for i, c := range cases {
		if got := c.opts.deltaEnabled(); got != c.want {
			t.Errorf("case %d: deltaEnabled() = %v, want %v", i, got, c.want)
		}
	}
}

// TestDeltaMatchesFullAcrossSemantics: for every injection semantics, a
// campaign with delta execution enabled returns accuracies bit-identical to
// the same campaign forced through full execution, for serial and parallel
// scheduling alike.
func TestDeltaMatchesFullAcrossSemantics(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	bers := []float64{1e-10, 3e-9, 1e-7}
	for _, sem := range []fault.Semantics{fault.ResultFlip, fault.OperandFlip, fault.NeuronFlip} {
		for _, rig := range []struct {
			name string
			r    *Runner
			in   []fault.Census
		}{{"direct", st, stInt}, {"winograd", wg, wgInt}} {
			for _, workers := range []int{1, 4} {
				opts := Options{Semantics: sem, Seed: 11, Intensity: rig.in, Workers: workers}
				full := opts
				full.DeltaExec = boolPtr(false)
				want := rig.r.AccuracyBatch(context.Background(), SweepCampaigns(bers, full), 2)
				got := rig.r.AccuracyBatch(context.Background(), SweepCampaigns(bers, opts), 2)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%v/%s/workers=%d: delta accuracy[%d] = %v, full = %v",
							sem, rig.name, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDeltaUnitRangeSharding: per-unit agreement counts from a delta-enabled
// runner, computed shard by shard, must merge to exactly the counts a full-
// execution runner produces over the whole range — the invariant that lets
// delta and non-delta workers participate in the same distributed campaign.
func TestDeltaUnitRangeSharding(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	bers := []float64{1e-9, 1e-8}
	opts := Options{Seed: 5, Intensity: stInt, Workers: 1}
	full := opts
	full.DeltaExec = boolPtr(false)
	cs := SweepCampaigns(bers, full)
	const rounds = 3
	want := st.UnitCounts(context.Background(), cs, rounds, 0, Units(cs, rounds))

	deltaCS := SweepCampaigns(bers, opts)
	total := Units(deltaCS, rounds)
	var got []int
	for lo := 0; lo < total; lo += 2 {
		hi := lo + 2
		if hi > total {
			hi = total
		}
		// Fresh delta runner per shard, as independent workers would be.
		shard, _, _, _ := testRig(t, 6)
		got = append(got, shard.UnitCounts(context.Background(), deltaCS, rounds, lo, hi)...)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d shard counts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unit %d: delta-sharded count %d != full count %d", i, got[i], want[i])
		}
	}
}

// TestDeltaProtectionThinsToNothing: when protection (or the operation-class
// fault-free flags) masks every sampled event, each round's dirty set is
// empty and delta execution returns the golden predictions — accuracy exactly
// 1 even at a BER that would otherwise destroy the network, identical to the
// full path.
func TestDeltaProtectionThinsToNothing(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	const ber = 1e-7 // ~everything dirty when unprotected (see the sweep tests)

	classFree := Options{Seed: 9, Intensity: stInt, MulFaultFree: true, AddFaultFree: true}
	prot := map[int]fault.Protection{}
	for i := range st.Net.Nodes {
		prot[i] = fault.Protection{MulFrac: 1, AddFrac: 1}
	}
	fullProt := Options{Seed: 9, Intensity: stInt, Protection: prot}
	for name, opts := range map[string]Options{"class fault-free": classFree, "full protection": fullProt} {
		if acc := st.Accuracy(context.Background(), ber, opts, 2); acc != 1 {
			t.Errorf("%s: delta accuracy = %v, want exactly 1 (events must thin to nothing)", name, acc)
		}
		forced := opts
		forced.DeltaExec = boolPtr(false)
		if acc := st.Accuracy(context.Background(), ber, forced, 2); acc != 1 {
			t.Errorf("%s: full-execution accuracy = %v, want exactly 1", name, acc)
		}
	}
}

// TestGoldenPlaneSharedReadOnly: one plane serves every worker of a
// Workers: 4 campaign on both engines — no worker captures a second while
// it is alive — and its bytes are unchanged afterwards (the race detector
// covers the concurrent reads).
func TestGoldenPlaneSharedReadOnly(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	for _, rig := range []struct {
		name string
		r    *Runner
		in   []fault.Census
	}{{"direct", st, stInt}, {"winograd", wg, wgInt}} {
		plane := rig.r.goldenPlane(&worker{ec: rig.r.Net.NewExecContext()})
		var before [][]int32
		for i := range rig.r.Net.Nodes {
			before = append(before, slices.Clone(plane.Act(i).Data))
		}
		opts := Options{Seed: 13, Intensity: rig.in, Workers: 4}
		rig.r.AccuracyBatch(context.Background(), SweepCampaigns([]float64{3e-10, 1e-9, 1e-8}, opts), 3)
		if rig.r.goldenPlane(&worker{ec: rig.r.Net.NewExecContext()}) != plane {
			t.Errorf("%s: the runner captured a second plane", rig.name)
		}
		for i := range rig.r.Net.Nodes {
			if !slices.Equal(plane.Act(i).Data, before[i]) {
				t.Errorf("%s: node %s of the golden plane changed during the campaign", rig.name, rig.r.Net.Nodes[i].Name)
			}
		}
	}
}

// TestPlaneLifetime: a runner left idle until the GC empties its pool
// holds no plane — so cached idle runners pin none — a full-execution
// campaign does not capture one, and a delta campaign does.
func TestPlaneLifetime(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	// The first GC moves the pooled workers to the pool's victim cache,
	// the second drops them, and with them the last strong reference.
	idle := func(when string) {
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		if st.plane.Value() != nil {
			t.Errorf("%s: an idle runner still holds its plane after the GC emptied its pool", when)
		}
	}
	idle("after New")
	opts := Options{Seed: 5, Intensity: stInt, Workers: 2, DeltaExec: boolPtr(false)}
	st.Accuracy(context.Background(), 1e-9, opts, 2)
	if st.plane.Value() != nil {
		t.Error("a full-execution campaign captured a plane")
	}
	opts.DeltaExec = nil
	st.Accuracy(context.Background(), 1e-9, opts, 2)
	if st.plane.Value() == nil {
		t.Fatal("a delta campaign captured no plane")
	}
	idle("after a delta campaign")
}
