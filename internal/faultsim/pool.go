package faultsim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
)

// The campaign scheduler: every accuracy measurement decomposes into
// independent (campaign, Monte-Carlo round) work units, and each unit derives
// its fault randomness purely from (campaign seed, round index) via
// rng.Stream splitting — never from a shared generator — so the set of
// sampled faults is identical for any worker count and any completion order.
// Workers only ever write to their own unit's result slot; aggregation
// happens on the caller's goroutine after all units finish. Determinism is
// therefore structural, not incidental: results are bit-identical between
// Exec.Workers=1 and Exec.Workers=N.
//
// Cancellation follows the same unit structure: workers re-check the context
// before claiming each unit, so a canceled campaign stops after at most one
// in-flight unit per worker instead of draining the whole sweep. Units that
// were executed before the cancellation are still deterministic; the caller
// must treat the aggregate as invalid whenever ctx.Err() != nil.

// resolveWorkers maps Exec.Workers to a concrete worker count:
// 0 (the default) means GOMAXPROCS, anything below 1 is clamped to serial.
func resolveWorkers(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// worker is one pooled per-worker state: an ExecContext and, once the
// worker has run a delta unit, the runner's golden plane. The runner holds
// the plane weakly, so pooled workers are what keep it alive.
type worker struct {
	ec    *nn.ExecContext
	plane *nn.Plane
}

// worker draws a worker from the runner's recycling pool (warm scratch
// arenas survive across batches), giving it a fresh context on the runner's
// backend when the pool is empty or holds only the plane New pooled.
func (r *Runner) worker() *worker {
	w, _ := r.pool.Get().(*worker)
	if w == nil {
		w = &worker{}
	}
	if w.ec == nil {
		w.ec = r.Net.NewExecContext()
		w.ec.UseBackend(r.exec.Backend)
	}
	return w
}

// runUnits executes fn(w, u) for every unit u in [0, n) across the given
// number of workers, stopping early (without running the remaining units)
// once ctx is canceled. Each worker owns a private nn.ExecContext over the
// runner's network, so forward passes reuse per-worker state without
// sharing any of it; workers return to the runner's pool when they drain
// normally. A panic in any unit is captured and re-raised on the calling
// goroutine once all workers have drained (its worker is dropped —
// mid-pass scratch state is not re-pooled).
func (r *Runner) runUnits(ctx context.Context, workers, n int, fn func(w *worker, u int)) {
	if n <= 0 {
		return
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		w := r.worker()
		for u := 0; u < n; u++ {
			select {
			case <-done:
				return
			default:
			}
			fn(w, u)
		}
		r.pool.Put(w)
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicOne sync.Once
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOne.Do(func() { panicked = p })
					// Drain the queue so sibling workers exit promptly.
					next.Store(int64(n))
				}
			}()
			wk := r.worker()
			for {
				select {
				case <-done:
					return
				default:
				}
				u := int(next.Add(1)) - 1
				if u >= n {
					r.pool.Put(wk)
					return
				}
				fn(wk, u)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
