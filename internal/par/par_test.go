package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkers pins the worker-budget convention every caller shares.
func TestWorkers(t *testing.T) {
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	if got := Workers(-3); got != 1 {
		t.Errorf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(6); got != 6 {
		t.Errorf("Workers(6) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
}

// TestDoCoversEveryTaskOnce: every index in [0, n) runs exactly once for
// any budget, including budgets above n and the GOMAXPROCS default.
func TestDoCoversEveryTaskOnce(t *testing.T) {
	for _, w := range []int{0, 1, 3, 8, 100} {
		const n = 37
		counts := make([]atomic.Int32, n)
		Do(w, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d task %d ran %d times", w, i, c)
			}
		}
	}
	Do(4, 0, func(int) { t.Error("a task ran for n = 0") })
}

// TestDoOneWorkerIsInline: a budget of one runs every task on the caller's
// goroutine, in index order, with no goroutine started.
func TestDoOneWorkerIsInline(t *testing.T) {
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) }) // unsynchronized: the race detector checks
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 tasks", len(order))
	}
}

// TestDoPropagatesPanic: a panicking task surfaces on the calling
// goroutine, where recover catches it, for any budget.
func TestDoPropagatesPanic(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("workers=%d: recovered %v, want boom", w, p)
				}
			}()
			Do(w, 8, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// TestEachState: each goroutine opens one state, every task sees its own
// goroutine's state, and only goroutines that drained the queue close
// theirs; a closed done channel stops all claims.
func TestEachState(t *testing.T) {
	var mu sync.Mutex
	opened, closed := 0, 0
	seen := make([]int, 20)
	Each(3, len(seen), nil,
		func() *int { mu.Lock(); defer mu.Unlock(); opened++; id := opened; return &id },
		func(s *int, i int) { seen[i] = *s },
		func(*int) { mu.Lock(); closed++; mu.Unlock() })
	if opened != 3 || closed != 3 {
		t.Errorf("opened %d, closed %d states, want 3 and 3", opened, closed)
	}
	for i, s := range seen {
		if s < 1 || s > 3 {
			t.Errorf("task %d saw state %d", i, s)
		}
	}

	done := make(chan struct{})
	close(done)
	ran := false
	Each(1, 4, done, func() int { return 0 }, func(int, int) { ran = true }, func(int) { t.Error("a canceled goroutine closed its state") })
	if ran {
		t.Error("a task ran after done was closed")
	}
}
