// Package par runs independent tasks on a bounded number of goroutines. Every
// compute fan-out of a campaign goes through it: the scheduler's units
// (faultsim), the split golden pass (nn), the per-layer weight draws
// (models) and a system's construction (winofault). So they share one
// worker-budget convention and one failure rule: a task's panic never
// escapes on a pool goroutine, where nothing could recover it, but is
// re-raised on the caller's goroutine, so a server that recovers a failed
// job there keeps running.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker budget: 0 (the default) means GOMAXPROCS, and
// anything below 1 means one.
func Workers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// Do calls fn(i) once for every i in [0, n), claimed in index order by
// min(Workers(workers), n) goroutines. With one, every call runs inline on
// the caller's goroutine, in order. A panic stops further claims and is
// re-raised on the caller's goroutine once every goroutine has returned.
func Do(workers, n int, fn func(i int)) {
	Each(workers, n, nil, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) }, nil)
}

// Each is Do with per-goroutine state and cancellation. Every goroutine
// calls open once before its first claim and passes the state to fn with
// each task it claims. It checks done before each claim and returns
// without closing its state once done is closed; a goroutine that drains
// the tasks calls close (when non-nil) with its state. A panicking
// goroutine's state is dropped, since the task may have left it mid-way.
// n <= 0 opens nothing.
func Each[S any](workers, n int, done <-chan struct{}, open func() S, fn func(s S, i int), close func(S)) {
	if n <= 0 {
		return
	}
	workers = min(Workers(workers), n)
	var next atomic.Int64
	run := func() {
		s := open()
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				if close != nil {
					close(s)
				}
				return
			}
			fn(s, i)
		}
	}
	if workers == 1 {
		run()
		return
	}

	var (
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
					// Drain the queue so sibling goroutines exit promptly.
					next.Store(int64(n))
				}
			}()
			run()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
