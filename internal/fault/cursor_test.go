package fault

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestCursorSortIsStable: on both the insertion-sort path (≤ 32 events) and
// the sort.Stable path, events come out in key order with equal keys in
// push order (recorded in each event's Op).
func TestCursorSortIsStable(t *testing.T) {
	for _, n := range []int{1, 5, 32, 33, 200} {
		var c Cursor
		r := rng.New(uint64(n))
		c.Reset()
		for i := 0; i < n; i++ {
			c.Push(r.Int63n(8), Event{Op: int64(i)})
		}
		c.Sort()
		for i := 1; i < n; i++ {
			if c.key[i-1] > c.key[i] || c.key[i-1] == c.key[i] && c.evs[i-1].Op > c.evs[i].Op {
				t.Fatalf("n=%d: (key %d, push %d) before (key %d, push %d)",
					n, c.key[i-1], c.evs[i-1].Op, c.key[i], c.evs[i].Op)
			}
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
