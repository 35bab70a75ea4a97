package faultsim

import (
	"context"
	"testing"

	"repro/internal/fault"
)

// TestUnitRangeShardingBitIdentical is the distributed-execution foundation:
// executing the flattened unit index space in arbitrary contiguous shards
// (with different worker counts per shard) and reducing the merged counts
// must reproduce AccuracyBatch bit-for-bit.
func TestUnitRangeShardingBitIdentical(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	opts := Options{Semantics: fault.OperandFlip, Seed: 21, Intensity: stInt}
	cs := SweepCampaigns([]float64{0, 1e-9, 1e-8, 3e-8}, opts)
	const rounds = 3
	want := st.AccuracyBatch(context.Background(), cs, rounds)

	total := Units(cs, rounds)
	if total != 3*rounds { // the BER 0 campaign contributes no units
		t.Fatalf("Units = %d, want %d", total, 3*rounds)
	}
	for _, shards := range []int{1, 2, 4, total} {
		counts := make([]int, 0, total)
		for s := 0; s < shards; s++ {
			lo, hi := s*total/shards, (s+1)*total/shards
			shard := withWorkers(st, 1+s) // shards disagree on worker count on purpose
			counts = append(counts, shard.UnitCounts(context.Background(), cs, rounds, lo, hi, nil)...)
		}
		got := Reduce(cs, rounds, len(st.Golden()), counts)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%d shards: accuracy[%d] = %v, want %v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestUnitCountsRangeValidation: malformed ranges and count lengths are
// programming errors and must panic rather than silently mis-merge.
func TestUnitCountsRangeValidation(t *testing.T) {
	st, _, _, _ := testRig(t, 2)
	cs := SweepCampaigns([]float64{1e-9}, Options{Seed: 1})
	for _, r := range [][2]int{{-1, 0}, {0, 3}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range [%d, %d) did not panic", r[0], r[1])
				}
			}()
			st.UnitCounts(context.Background(), cs, 2, r[0], r[1], nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short counts slice did not panic")
			}
		}()
		Reduce(cs, 2, len(st.Golden()), []int{1})
	}()
}

// TestLayerSensitivityFromCounts: the sharded layer-sensitivity reduction
// matches the single-process analysis bit-for-bit.
func TestLayerSensitivityFromCounts(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	opts := Options{Semantics: fault.OperandFlip, Seed: 22, Intensity: stInt}
	const ber, rounds = 3e-9, 2
	wantBase, wantPer := st.LayerSensitivity(context.Background(), ber, opts, rounds)

	cs := LayerCampaigns(st.Net.ConvNodes(), ber, opts)
	total := Units(cs, rounds)
	var counts []int
	for _, r := range [][2]int{{0, total / 3}, {total / 3, total / 2}, {total / 2, total}} {
		counts = append(counts, st.UnitCounts(context.Background(), cs, rounds, r[0], r[1], nil)...)
	}
	base, per := LayerSensitivityFromCounts(st.Net.ConvNodes(), ber, opts, rounds, len(st.Golden()), counts)
	if base != wantBase {
		t.Errorf("baseline %v, want %v", base, wantBase)
	}
	if len(per) != len(wantPer) {
		t.Fatalf("per-layer size %d, want %d", len(per), len(wantPer))
	}
	for li, acc := range wantPer {
		if per[li] != acc {
			t.Errorf("layer %d: %v, want %v", li, per[li], acc)
		}
	}
}
