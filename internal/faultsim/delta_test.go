package faultsim

import (
	"context"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestDeltaEnabledResolution pins which path a delta runner's units take:
// neuron-flip campaigns run in full (their in-place corruption is not
// located by the event stream), so after a Release a neuron campaign
// captures no plane, while an operand campaign captures one.
func TestDeltaEnabledResolution(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	neurons := models.NeuronIntensityFor(models.VGG19(models.Tiny), models.VGG19(models.Options{}))
	st.Release()
	st.Accuracy(context.Background(), 1e-8, Options{Semantics: fault.NeuronFlip, Seed: 5, NeuronIntensity: neurons}, 2)
	if st.plane != nil {
		t.Error("a neuron-flip campaign ran delta rounds")
	}
	st.Accuracy(context.Background(), 1e-8, Options{Semantics: fault.OperandFlip, Seed: 5, Intensity: stInt}, 2)
	if st.plane == nil {
		t.Error("an operand-flip campaign on a delta runner ran full rounds")
	}
}

// TestDeltaMatchesFullAcrossSemantics: for every injection semantics, a
// delta runner returns accuracies bit-identical to a full runner over the
// same network, for serial and parallel scheduling alike.
func TestDeltaMatchesFullAcrossSemantics(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	bers := []float64{1e-10, 3e-9, 1e-7}
	for _, rig := range []struct {
		name string
		r    *Runner
		in   []fault.Census
	}{{"direct", st, stInt}, {"winograd", wg, wgInt}} {
		for _, workers := range []int{1, 4} {
			delta, full := rig.r.with(Exec{Workers: workers}), rig.r.with(Exec{Workers: workers, Full: true})
			for _, sem := range []fault.Semantics{fault.ResultFlip, fault.OperandFlip, fault.NeuronFlip} {
				cs := SweepCampaigns(bers, Options{Semantics: sem, Seed: 11, Intensity: rig.in})
				want := full.AccuracyBatch(context.Background(), cs, 2)
				got := delta.AccuracyBatch(context.Background(), cs, 2)
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

// TestDeltaUnitRangeSharding: per-unit agreement counts from delta runners,
// computed shard by shard, must merge to exactly the counts a full runner
// produces over the whole range — the invariant that lets delta and
// non-delta workers participate in the same distributed campaign.
func TestDeltaUnitRangeSharding(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	cs := SweepCampaigns([]float64{1e-9, 1e-8}, Options{Seed: 5, Intensity: stInt})
	const rounds = 3
	total := Units(cs, rounds)
	want := st.with(Exec{Workers: 1, Full: true}).UnitCounts(context.Background(), cs, rounds, 0, total, nil)

	var got []int
	for lo := 0; lo < total; lo += 2 {
		hi := lo + 2
		if hi > total {
			hi = total
		}
		// Fresh delta runner per shard, as independent workers would be.
		shard := withWorkers(st, 1)
		got = append(got, shard.UnitCounts(context.Background(), cs, rounds, lo, hi, nil)...)
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
	full := st.with(Exec{Full: true})
	for name, opts := range map[string]Options{"class fault-free": classFree, "full protection": fullProt} {
		if acc := st.Accuracy(context.Background(), ber, opts, 2); acc != 1 {
			t.Errorf("%s: delta accuracy = %v, want exactly 1 (events must thin to nothing)", name, acc)
		}
		if acc := full.Accuracy(context.Background(), ber, opts, 2); acc != 1 {
			t.Errorf("%s: full-execution accuracy = %v, want exactly 1", name, acc)
		}
	}
}

// TestGoldenPlaneSharedReadOnly: one plane serves every worker of a
// four-worker runner's campaign on both engines — no worker captures a
// second while it is alive — and its bytes are unchanged afterwards (the
// race detector covers the concurrent reads).
func TestGoldenPlaneSharedReadOnly(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	for _, rig := range []struct {
		name string
		r    *Runner
		in   []fault.Census
	}{{"direct", st, stInt}, {"winograd", wg, wgInt}} {
		r := withWorkers(rig.r, 4)
		plane := r.goldenPlane(&worker{ec: r.Net.NewExecContext()})
		var before [][]int32
		for i := range r.Net.Nodes {
			before = append(before, slices.Clone(plane.Act(i).Data))
		}
		opts := Options{Seed: 13, Intensity: rig.in}
		r.AccuracyBatch(context.Background(), SweepCampaigns([]float64{3e-10, 1e-9, 1e-8}, opts), 3)
		if r.goldenPlane(&worker{ec: r.Net.NewExecContext()}) != plane {
			t.Errorf("%s: the runner captured a second plane", rig.name)
		}
		for i := range rig.r.Net.Nodes {
			if !slices.Equal(plane.Act(i).Data, before[i]) {
				t.Errorf("%s: node %s of the golden plane changed during the campaign", rig.name, rig.r.Net.Nodes[i].Name)
			}
		}
	}
}

// TestPlaneLifetime: a full runner holds no plane, neither after New nor
// after a campaign. A delta runner captures one in New, shares it with its
// campaigns' workers and keeps it until Release; its next campaign then
// captures one again.
func TestPlaneLifetime(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	opts := Options{Seed: 5, Intensity: stInt}

	full := st.with(Exec{Workers: 2, Full: true})
	if full.plane != nil {
		t.Error("a full runner captured a plane in New")
	}
	full.Accuracy(context.Background(), 1e-9, opts, 2)
	if full.plane != nil {
		t.Error("a full runner's campaign captured a plane")
	}

	delta := withWorkers(st, 2)
	plane := delta.plane
	if plane == nil {
		t.Fatal("a delta runner captured no plane in New")
	}
	delta.Accuracy(context.Background(), 1e-9, opts, 2)
	if delta.plane != plane {
		t.Error("a delta runner's campaign captured a second plane")
	}
	delta.Release()
	if holds(delta) {
		t.Error("a released runner still holds working state")
	}
	delta.Accuracy(context.Background(), 1e-9, opts, 2)
	if delta.plane == nil || delta.plane == plane {
		t.Fatal("a released delta runner's campaign captured no new plane")
	}
}

// TestSplitGoldenPassAgrees: New splits its golden pass into min(Workers,
// N) image ranges, so the golden predictions of a full runner (argmax per
// range) and of a delta runner (argmax of the assembled plane) must agree
// with a serial runner's at every split of 7 images, even and uneven, and
// the delta runners' planes must equal the serial one byte for byte.
func TestSplitGoldenPassAgrees(t *testing.T) {
	st, _, _, _ := testRig(t, 7)
	serial := st.with(Exec{Workers: 1})
	want := serial.Golden()
	plane := serial.goldenPlane(&worker{ec: serial.newContext()})
	for _, workers := range []int{1, 2, 3, 8} {
		full, delta := st.with(Exec{Workers: workers, Full: true}), st.with(Exec{Workers: workers})
		if !slices.Equal(full.Golden(), want) || !slices.Equal(delta.Golden(), want) {
			t.Errorf("workers=%d: full runner golden %v, delta runner %v, serial %v", workers, full.Golden(), delta.Golden(), want)
		}
		got := delta.goldenPlane(&worker{ec: delta.newContext()})
		for i := range st.Net.Nodes {
			if a, b := got.Act(i), plane.Act(i); a.Shape != b.Shape || a.Fmt != b.Fmt || !slices.Equal(a.Data, b.Data) {
				t.Fatalf("workers=%d: node %s of the split plane differs from the serial capture", workers, st.Net.Nodes[i].Name)
			}
		}
	}
}

// panicOp is an op that panics on an input batch of n images, so it fails
// exactly one image range of a split golden pass.
type panicOp struct {
	nn.Op
	n int
}

func (p panicOp) Forward(sc *nn.Scratch, ins []*tensor.QTensor, evs []fault.Event) *tensor.QTensor {
	if ins[0].Shape.N == p.n {
		panic("panicOp: image range failed")
	}
	return p.Op.Forward(sc, ins, evs)
}

// TestGoldenPassPanicReachesCaller: a golden pass that panics on one image
// range — one of three ranges of 7 images, or the serial pass's whole
// batch — panics New on the caller's goroutine, where recover catches it
// (a panic on a pool goroutine would crash the process instead), for full
// and delta runners alike.
func TestGoldenPassPanicReachesCaller(t *testing.T) {
	st, _, _, _ := testRig(t, 7)
	for _, c := range []struct{ workers, n int }{{3, 3}, {1, 7}} {
		for _, full := range []bool{false, true} {
			net := *st.Net
			net.Nodes = slices.Clone(net.Nodes)
			relu := 1 // conv1_1.relu
			net.Nodes[relu].Op = panicOp{Op: net.Nodes[relu].Op, n: c.n}
			func() {
				defer func() {
					if p := recover(); p != "panicOp: image range failed" {
						t.Errorf("workers=%d full=%v: recovered %v", c.workers, full, p)
					}
				}()
				New(&net, st.Inputs, Exec{Workers: c.workers, Full: full})
			}()
		}
	}
}
