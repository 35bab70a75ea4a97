package fault

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestCursorSortIsStable: on both the insertion-sort path (below radixMin
// events) and the radix path, events come out in key order with equal keys
// in push order (recorded in each event's Op), each beside the key it was
// pushed with. Key ranges run from a few values, where most keys repeat, to
// 2^40, where the radix sort needs four digits; the last range's keys share
// their top digit, a pass the radix sort skips.
func TestCursorSortIsStable(t *testing.T) {
	for _, n := range []int{1, 5, 32, 33, radixMin - 1, radixMin, 200, 1000, 6500, 50000} {
		for _, keys := range []struct{ lo, span int64 }{{0, 8}, {0, 1000}, {0, 1 << 22}, {0, 1 << 40}, {1 << 40, 1 << 21}} {
			var c Cursor
			r := rng.New(uint64(n))
			pushed := make([]int64, n)
			c.Reset()
			for i := range pushed {
				pushed[i] = keys.lo + r.Int63n(keys.span)
				c.Push(pushed[i], Event{Op: int64(i)})
			}
			c.Sort()
			for i := range pushed {
				if c.key[i] != pushed[c.evs[i].Op] {
					t.Fatalf("n=%d keys %+v: event pushed %d under key %d sorted beside key %d",
						n, keys, c.evs[i].Op, pushed[c.evs[i].Op], c.key[i])
				}
				if i > 0 && (c.key[i-1] > c.key[i] || c.key[i-1] == c.key[i] && c.evs[i-1].Op >= c.evs[i].Op) {
					t.Fatalf("n=%d keys %+v: (key %d, push %d) before (key %d, push %d)",
						n, keys, c.key[i-1], c.evs[i-1].Op, c.key[i], c.evs[i].Op)
				}
			}
		}
	}
}

// TestCursorRadixSortConcurrent: cursors on several goroutines radix-sort
// at once, each through a buffer pair from the shared pool, and none sees
// another's events.
func TestCursorRadixSortConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Cursor
			r := rng.New(uint64(g))
			for pass := 0; pass < 20; pass++ {
				n := radixMin + r.Intn(3000)
				c.Reset()
				for i := 0; i < n; i++ {
					c.Push(r.Int63n(1<<30), Event{Op: int64(g)})
				}
				c.Sort()
				for i := 1; i < n; i++ {
					if c.key[i-1] > c.key[i] || c.evs[i].Op != int64(g) {
						t.Errorf("goroutine %d pass %d: out of order or foreign event at %d", g, pass, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCursorPushPanicsOnNegativeKey: the radix sort orders keys as unsigned
// digits, so a negative key is refused where it is pushed.
func TestCursorPushPanicsOnNegativeKey(t *testing.T) {
	var c Cursor
	wantPanic(t, "mul event index 7 has negative key -2", func() { c.Push(-2, Event{Class: OpMul, Op: 7}) })
}

// BenchmarkCursorSort times one pass's push and sort of n events with keys
// below 2^34 (the keyed range of a dense default-scale layer), on each sort
// path: the insertion sort up to 1,000 events, the radix sort at every size.
// Between 64 and 256 events it shows the crossover and the cost of placing
// radixMin at the cursor's buffer cap instead. Both paths allocate nothing
// on a warm cursor and a warm pool.
func BenchmarkCursorSort(b *testing.B) {
	for _, n := range []int{64, 128, 256, 1000, 6500, 50000} {
		r := rng.New(uint64(n))
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = r.Int63n(1 << 34)
		}
		for _, path := range []struct {
			name string
			sort func(*Cursor)
		}{{"insertion", (*Cursor).insertionSort}, {"radix", (*Cursor).radixSort}} {
			if path.name == "insertion" && n > 1000 {
				continue
			}
			b.Run(fmt.Sprintf("events=%d/%s", n, path.name), func(b *testing.B) {
				var c Cursor
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.Reset()
					for j, k := range keys {
						c.Push(k, Event{Op: int64(j)})
					}
					path.sort(&c)
				}
			})
		}
	}
}

func TestCursorWalk(t *testing.T) {
	var c Cursor
	c.Reset()
	for _, k := range []int64{7, 3, 7, 12} {
		c.Push(k, Event{Op: k})
	}
	c.Sort()
	if c.Below(3) || !c.Below(4) {
		t.Fatal("Below(3) or !Below(4) with the lowest key 3")
	}
	if got := c.Peek(); got != 3 {
		t.Fatalf("Peek = %d, want 3", got)
	}
	if evs := c.At(2); len(evs) != 0 {
		t.Fatalf("At(2) = %v, want none", evs)
	}
	if evs := c.At(3); len(evs) != 1 || evs[0].Op != 3 {
		t.Fatalf("At(3) = %v", evs)
	}
	if evs := c.At(7); len(evs) != 2 {
		t.Fatalf("At(7) = %v, want both key-7 events", evs)
	}
	if c.Below(12) || !c.Below(13) || c.Peek() != 12 {
		t.Fatal("cursor not at key 12 after consuming 3 and 7")
	}
	if evs := c.At(12); len(evs) != 1 || c.Below(1<<62) {
		t.Fatal("At(12) did not consume the last event")
	}
	c.Done()
}

// wantPanic requires fn to panic with a message containing want.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("recovered %q, want a panic containing %q", msg, want)
		}
	}()
	fn()
}

func TestCursorDonePanicsOnUnconsumedEvent(t *testing.T) {
	var c Cursor
	c.Reset()
	c.Push(4, Event{Class: OpAdd, Op: 9})
	c.Push(1, Event{Class: OpMul, Op: 2})
	c.Sort()
	c.At(1)
	wantPanic(t, "add event index 9 (key 4) was not replayed", c.Done)
}

// TestCursorPeekPanicsOnStall: a site loop whose site consumes nothing would
// peek the same event forever; the second Peek fails instead.
func TestCursorPeekPanicsOnStall(t *testing.T) {
	var c Cursor
	c.Reset()
	c.Push(5, Event{})
	c.Push(6, Event{})
	c.Sort()
	c.Peek()
	c.At(5)
	c.Peek() // progress since the last Peek: fine
	wantPanic(t, "no site consumed the event keyed 6", func() { c.Peek() })
}

// TestCursorBufferCap: buffers up to cursorCap events are reused across
// passes without allocating; larger ones are dropped when the pass ends.
func TestCursorBufferCap(t *testing.T) {
	var c Cursor
	keys := rng.New(1).Perm(cursorCap + 1)
	pass := func(n int) {
		c.Reset()
		for _, k := range keys[:n] {
			c.Push(int64(k), Event{})
		}
		c.Sort()
		for c.Below(1 << 20) {
			c.At(c.Peek())
		}
		c.Done()
	}
	pass(cursorCap)
	if allocs := testing.AllocsPerRun(10, func() { pass(cursorCap) }); allocs != 0 {
		t.Errorf("a %d-event pass on a warm cursor allocates %v times, want 0", cursorCap, allocs)
	}
	if cap(c.key) == 0 || cap(c.evs) == 0 {
		t.Error("buffers at the cap were dropped")
	}
	pass(cursorCap + 1)
	if c.key != nil || c.evs != nil {
		t.Errorf("buffers of %d and %d events kept past the cap", cap(c.key), cap(c.evs))
	}
}
