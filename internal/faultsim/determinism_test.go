package faultsim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
)

// workerCounts are the schedules every determinism test compares. Workers=8
// on any host forces real goroutine interleaving (the pool spawns min(n,
// workers) goroutines even on a single-core machine), so running these tests
// under -race exercises genuinely concurrent forward passes.
var workerCounts = []int{1, 2, 8}

// withWorkers returns a runner over r's network and inputs with w workers.
func withWorkers(r *Runner, w int) *Runner { return r.with(Exec{Workers: w}) }

// TestSweepDeterministicAcrossWorkers: the tentpole guarantee — a BER sweep
// must produce bit-identical accuracies (and preserve point order) for every
// worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	bers := []float64{0, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7}
	rigs := map[string]struct {
		r         *Runner
		intensity []fault.Census
	}{
		"direct":   {st, stInt},
		"winograd": {wg, wgInt},
	}
	for name, rc := range rigs {
		r := rc.r
		opts := Options{Seed: 42, Intensity: rc.intensity}
		ref := withWorkers(r, 1).Sweep(context.Background(), bers, opts, 3)
		for _, w := range workerCounts[1:] {
			got := withWorkers(r, w).Sweep(context.Background(), bers, opts, 3)
			if len(got) != len(ref) {
				t.Fatalf("%s: workers=%d returned %d points, want %d", name, w, len(got), len(ref))
			}
			for i := range ref {
				if got[i].BER != ref[i].BER {
					t.Errorf("%s: workers=%d point %d BER %g, want %g (ordering broken)",
						name, w, i, got[i].BER, ref[i].BER)
				}
				if got[i].Accuracy != ref[i].Accuracy {
					t.Errorf("%s: workers=%d point %d accuracy %v != serial %v",
						name, w, i, got[i].Accuracy, ref[i].Accuracy)
				}
			}
		}
	}
}

// TestLayerSensitivityDeterministicAcrossWorkers checks the Fig. 3 analysis:
// baseline and per-layer accuracies must match the serial schedule exactly.
func TestLayerSensitivityDeterministicAcrossWorkers(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	opts := Options{Seed: 7, Intensity: stInt}
	refBase, refPer := withWorkers(st, 1).LayerSensitivity(context.Background(), 2e-9, opts, 2)
	for _, w := range workerCounts[1:] {
		base, per := withWorkers(st, w).LayerSensitivity(context.Background(), 2e-9, opts, 2)
		if base != refBase {
			t.Errorf("workers=%d baseline %v != serial %v", w, base, refBase)
		}
		if len(per) != len(refPer) {
			t.Fatalf("workers=%d returned %d layers, want %d", w, len(per), len(refPer))
		}
		for li, acc := range refPer {
			if per[li] != acc {
				t.Errorf("workers=%d layer %d accuracy %v != serial %v", w, li, per[li], acc)
			}
		}
	}
}

// TestAccuracyBatchMatchesIndividual: a heterogeneous batch must return
// exactly what separate Accuracy calls return, in campaign order.
func TestAccuracyBatchMatchesIndividual(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	base := Options{Seed: 5, Intensity: stInt}
	mulFree := base
	mulFree.MulFaultFree = true
	ff := base
	ff.FaultFree = map[int]bool{0: true}
	cs := []Campaign{
		{BER: 1e-9, Opts: base},
		{BER: 0, Opts: base}, // BER <= 0 short-circuits to exactly 1
		{BER: 3e-9, Opts: mulFree},
		{BER: 1e-8, Opts: ff},
	}
	serial := withWorkers(st, 1)
	for _, w := range workerCounts {
		got := withWorkers(st, w).AccuracyBatch(context.Background(), cs, 2)
		for i, c := range cs {
			want := serial.Accuracy(context.Background(), c.BER, c.Opts, 2)
			if got[i] != want {
				t.Errorf("workers=%d campaign %d accuracy %v, want %v", w, i, got[i], want)
			}
		}
	}
}

// TestRunnerConcurrentCallers: distinct goroutines sharing one Runner (each
// with campaigns of their own) must not interfere — the facade allows a
// System to be queried concurrently.
func TestRunnerConcurrentCallers(t *testing.T) {
	st, _, stInt, _ := testRig(t, 4)
	opts := Options{Seed: 11, Intensity: stInt}
	want := withWorkers(st, 1).Accuracy(context.Background(), 2e-9, opts, 2)
	st = withWorkers(st, 2)
	var wgrp sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wgrp.Add(1)
		go func() {
			defer wgrp.Done()
			if got := st.Accuracy(context.Background(), 2e-9, opts, 2); got != want {
				errs <- fmt.Errorf("concurrent caller got %v, want %v", got, want)
			}
		}()
	}
	wgrp.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunUnitsCoversAllUnitsOnce: scheduler invariant — every unit index in
// [0, n) executes exactly once for any worker count, including workers > n.
func TestRunUnitsCoversAllUnitsOnce(t *testing.T) {
	st, _, _, _ := testRig(t, 1)
	for _, w := range []int{0, 1, 3, 8, 100} {
		const n = 37
		counts := make([]int32, n)
		var mu sync.Mutex
		st.runUnits(context.Background(), w, n, func(wk *worker, u int) {
			if wk.ec == nil {
				t.Error("nil ExecContext") // runs on a worker goroutine: Error, not Fatal
			}
			mu.Lock()
			counts[u]++
			mu.Unlock()
		})
		for u, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d unit %d ran %d times", w, u, c)
			}
		}
	}
}

// TestRunUnitsPropagatesPanic: a panicking unit must surface on the calling
// goroutine (not crash the process from a worker).
func TestRunUnitsPropagatesPanic(t *testing.T) {
	st, _, _, _ := testRig(t, 1)
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: panic did not propagate", w)
				}
			}()
			st.runUnits(context.Background(), w, 8, func(_ *worker, u int) {
				if u == 3 {
					panic("boom")
				}
			})
		}()
	}
}
