package faultsim

import (
	"context"
	"testing"

	"repro/internal/fixed"
	"repro/internal/hwfault"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/systolic"
	"repro/internal/winograd"
)

// hwInjection builds a stuck-at / burst / voltregion injection for the
// testRig's tiny VGG19 at the given evaluation batch size.
func hwInjection(t *testing.T, sc hwfault.Scenario, kind nn.EngineKind, batch int) *hwfault.Injection {
	t.Helper()
	arch := models.VGG19(models.Tiny)
	sched := hwfault.NetworkSchedules(systolic.DNNEngine16, arch, kind, winograd.F2, batch)
	inj, err := hwfault.NewInjection(sc, systolic.DNNEngine16, fixed.Int16, sched, 42)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestHWSweepDeterministicAcrossWorkers: the acceptance guarantee for
// hardware-located campaigns — a stuck-at-PE sweep is bit-identical across
// Workers 1, 2 and 8 on both engines, exactly like the statistical model.
func TestHWSweepDeterministicAcrossWorkers(t *testing.T) {
	st, wg, _, _ := testRig(t, 4)
	bers := []float64{1e-10, 1e-9}
	for name, r := range map[string]*Runner{"direct": st, "winograd": wg} {
		kind := nn.Direct
		if name == "winograd" {
			kind = nn.Winograd
		}
		opts := Options{
			Seed: 42,
			HW:   hwInjection(t, hwfault.Scenario{Kind: hwfault.StuckPE, Bit: 20}, kind, 4),
		}
		ref := withWorkers(r, 1).Sweep(context.Background(), bers, opts, 2)
		for _, w := range workerCounts[1:] {
			got := withWorkers(r, w).Sweep(context.Background(), bers, opts, 2)
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("%s: workers=%d point %d = %+v, serial %+v", name, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestStuckPEDegradesAccuracy: a high product bit stuck in PE (0,0) must
// actually corrupt classifications, and the existing masks must still
// govern it: mul-fault-free silences it (all scheduled ops are muls) and a
// full fault-free node set is exact.
func TestStuckPEDegradesAccuracy(t *testing.T) {
	_, wg, _, _ := testRig(t, 4)
	wg = withWorkers(wg, 2)
	inj := hwInjection(t, hwfault.Scenario{Kind: hwfault.StuckPE, Bit: 28}, nn.Winograd, 4)
	opts := Options{Seed: 1, HW: inj}
	if acc := wg.Accuracy(context.Background(), 1e-9, opts, 1); acc == 1 {
		t.Error("stuck bit 28 in PE (0,0) left accuracy at 1")
	}
	silenced := opts
	silenced.MulFaultFree = true
	if acc := wg.Accuracy(context.Background(), 1e-9, silenced, 1); acc != 1 {
		t.Errorf("mul-fault-free stuck-at campaign accuracy %v, want 1", acc)
	}
	free := opts
	free.FaultFree = map[int]bool{}
	for li := range wg.Net.Nodes {
		free.FaultFree[li] = true
	}
	if acc := wg.Accuracy(context.Background(), 1e-9, free, 1); acc != 1 {
		t.Errorf("all-fault-free stuck-at campaign accuracy %v, want 1", acc)
	}
}

// TestHWUnitRangeSharding: hardware-located campaigns shard over the unit
// index space exactly like statistical ones — merged shard counts reduce to
// the full-range bytes.
func TestHWUnitRangeSharding(t *testing.T) {
	st, _, _, _ := testRig(t, 4)
	inj := hwInjection(t, hwfault.Scenario{Kind: hwfault.BurstSEU, Span: 32}, nn.Direct, 4)
	cs := SweepCampaigns([]float64{1e-10, 1e-9, 1e-8}, Options{Seed: 3, HW: inj})
	const rounds = 2
	total := Units(cs, rounds)
	want := st.UnitCounts(context.Background(), cs, rounds, 0, total, nil)
	var merged []int
	for lo := 0; lo < total; lo += 2 {
		hi := lo + 2
		if hi > total {
			hi = total
		}
		merged = append(merged, st.UnitCounts(context.Background(), cs, rounds, lo, hi, nil)...)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("unit %d: sharded count %d != full-range %d", i, merged[i], want[i])
		}
	}
}
