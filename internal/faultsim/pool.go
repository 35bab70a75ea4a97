package faultsim

import (
	"context"

	"repro/internal/nn"
	"repro/internal/par"
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

// worker is one pooled per-worker state: an ExecContext and, once the
// worker has run a delta unit, the runner's golden plane. The runner holds
// the plane weakly, so pooled workers are what keep it alive.
type worker struct {
	ec    *nn.ExecContext
	plane *nn.Plane
}

// newContext returns a fresh context on the runner's backend.
func (r *Runner) newContext() *nn.ExecContext {
	ec := r.Net.NewExecContext()
	ec.UseBackend(r.exec.Backend)
	return ec
}

// worker draws a worker from the runner's recycling pool (warm scratch
// arenas survive across batches), giving it a fresh context when the pool
// is empty or holds only the plane New pooled.
func (r *Runner) worker() *worker {
	w, _ := r.pool.Get().(*worker)
	if w == nil {
		w = &worker{}
	}
	if w.ec == nil {
		w.ec = r.newContext()
	}
	return w
}

// runUnits executes fn(w, u) for every unit u in [0, n) across the given
// number of workers (par.Each), stopping early (without running the
// remaining units) once ctx is canceled. Each worker owns a private
// nn.ExecContext over the runner's network, so forward passes reuse
// per-worker state without sharing any of it; workers return to the
// runner's pool when they drain normally. A panic in any unit is re-raised
// on the calling goroutine once all workers have drained (its worker is
// dropped — mid-pass scratch state is not re-pooled).
func (r *Runner) runUnits(ctx context.Context, workers, n int, fn func(w *worker, u int)) {
	par.Each(workers, n, ctx.Done(), r.worker, fn, func(w *worker) {
		w.ec.Detach() // its last pass may have read a reference round
		r.pool.Put(w)
	})
}
