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
//
// A call's workers run on the runner's idle contexts, warm from earlier
// calls, and return them when they drain: the runner keeps at most Workers
// of them until Release. Workers hold no result-affecting state, so reusing
// a context cannot change any outcome.

// worker is one goroutine's state for a call: a context and, once the worker
// has run a delta unit, the runner's golden plane. gen is the runner's
// Release count when the worker opened; a context opened before a Release is
// dropped, not kept.
type worker struct {
	ec    *nn.ExecContext
	plane *nn.Plane
	gen   uint64
}

// newContext returns a fresh context on the runner's backend.
func (r *Runner) newContext() *nn.ExecContext {
	ec := r.Net.NewExecContext()
	ec.UseBackend(r.exec.Backend)
	return ec
}

// worker opens a worker on an idle context, or on a fresh one when the
// runner keeps none.
func (r *Runner) worker() *worker {
	r.mu.Lock()
	w := &worker{gen: r.gen}
	if n := len(r.idle); n > 0 {
		w.ec = r.idle[n-1]
		r.idle[n-1] = nil
		r.idle = r.idle[:n-1]
	}
	r.mu.Unlock()
	if w.ec == nil {
		w.ec = r.newContext()
	}
	return w
}

// keep returns a drained worker's context to the runner, detached so that
// it pins no round it last read, unless the runner already keeps Workers
// contexts or was released since the worker opened.
func (r *Runner) keep(w *worker) {
	w.ec.Detach()
	r.mu.Lock()
	defer r.mu.Unlock()
	if w.gen == r.gen && len(r.idle) < r.Workers() {
		r.idle = append(r.idle, w.ec)
	}
}

// runUnits executes fn(w, u) for every unit u in [0, n) across the given
// number of workers (par.Each), stopping early (without running the
// remaining units) once ctx is canceled. Each worker owns a private
// nn.ExecContext over the runner's network, so forward passes reuse
// per-worker state without sharing any of it; workers that drain normally
// return their contexts to the runner. A panic in any unit is re-raised on
// the calling goroutine once all workers have drained (its worker is dropped
// — mid-pass scratch state is not kept).
func (r *Runner) runUnits(ctx context.Context, workers, n int, fn func(w *worker, u int)) {
	par.Each(workers, n, ctx.Done(), r.worker, fn, r.keep)
}
