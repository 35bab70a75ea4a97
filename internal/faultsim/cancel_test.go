package faultsim

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
)

// TestCancellationStopsScheduling: canceling the context mid-campaign must
// stop the scheduler from claiming further (campaign, round) units instead
// of draining the whole sweep.
func TestCancellationStopsScheduling(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	bers := []float64{1e-9, 3e-9, 1e-8}
	const rounds = 4
	total := len(bers) * rounds

	cs := SweepCampaigns(bers, Options{Semantics: fault.OperandFlip, Seed: 21, Intensity: stInt})
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int64
		withWorkers(st, workers).UnitCounts(ctx, cs, rounds, 0, total, func(done, tot int) {
			if tot != total {
				t.Errorf("workers=%d: progress total %d, want %d", workers, tot, total)
			}
			if done == 0 {
				return // the batch announcement, not a completed unit
			}
			if executed.Add(1) >= 2 {
				cancel()
			}
		})
		if err := ctx.Err(); err == nil {
			t.Fatalf("workers=%d: context not canceled", workers)
		}
		// After the cancel at unit 2, each worker may finish its in-flight
		// unit but must not claim another.
		if got, max := int(executed.Load()), 2+workers; got > max {
			t.Errorf("workers=%d: %d units ran after cancellation (want <= %d)", workers, got, max)
		}
		cancel()
	}
}

// TestProgressReportsEveryUnit: an uncancelled campaign announces the batch
// with a 0/total call, reports every completed unit, and progress observation
// does not change any count.
func TestProgressReportsEveryUnit(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	st = withWorkers(st, 1)
	const rounds = 3
	bers := []float64{1e-9, 1e-8}
	cs := SweepCampaigns(bers, Options{Semantics: fault.OperandFlip, Seed: 22, Intensity: stInt})
	want := st.UnitCounts(context.Background(), cs, rounds, 0, len(bers)*rounds, nil)

	var calls, announced atomic.Int64
	got := st.UnitCounts(context.Background(), cs, rounds, 0, len(bers)*rounds, func(done, total int) {
		if total != len(bers)*rounds {
			t.Errorf("progress total %d, want %d", total, len(bers)*rounds)
		}
		if done == 0 {
			announced.Add(1)
			return
		}
		calls.Add(1)
		if done < 1 || done > total {
			t.Errorf("progress done %d out of range [1,%d]", done, total)
		}
	})
	if announced.Load() != 1 {
		t.Errorf("batch announced %d times, want 1", announced.Load())
	}
	if int(calls.Load()) != len(bers)*rounds {
		t.Errorf("progress called %d times, want %d", calls.Load(), len(bers)*rounds)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("observing progress changed unit %d's count: %d vs %d", i, want[i], got[i])
		}
	}
}
