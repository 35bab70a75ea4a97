package faultsim

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/nn"
)

// Reference rounds (see DESIGN.md "Delta execution"): the injector draws a
// node's events from (Seed, round, node) and the campaign's Options alone,
// so two campaigns whose Options agree except at a few nodes draw, in every
// round, exactly the same events at every other node. A layer-sensitivity
// campaign is the all-faulty baseline with one conv node made fault-free:
// its round r equals the baseline's round r up to that node, and after it
// differs only where that node's events were not masked. So when a
// UnitCounts call covers such campaigns, it runs the batch's first
// campaign's round r once, captures it (nn.CaptureRound), and runs each of
// the others' round r as a delta against that capture, naming the nodes
// where their events may differ (nn.ForwardDelta). The capture also
// supplies the first campaign's own count for round r.
//
// A reference round lives only for its call. The call runs its units
// round-major, so each reference is released after its round's last unit
// and at most the rounds in flight are held at once; no runner, pool or
// plan cache keeps one after the call.

// references is the reference plan of one UnitCounts call. A nil
// *references runs every unit against the golden run, in unit order.
type references struct {
	// differ holds, per campaign after the first, the nodes at which its
	// events may differ from the first campaign's; nil for a campaign that
	// runs against the golden run.
	differ [][]bool
	rounds []refRound // per round; users 0 where no unit of the call needs one
	order  []int      // the call's units (offsets into its range), round-major
}

// refRound is round r of the batch's first campaign: captured by the first
// worker of the call that needs it, then shared read-only by the call's
// workers until its last user is done.
type refRound struct {
	mu    sync.Mutex
	plane *nn.Plane // nil before the capture and after the release
	agree int       // the first campaign's own count for the round
	users int       // the call's units that read it
	left  int       // users not yet done
}

// testHookCapture, when set, sees every reference round a call captures.
var testHookCapture func(*nn.Plane)

// references plans the reference rounds of the call running units (the
// call's range) of batch cs, or returns nil when no unit of the range runs
// against one: a full runner, or no campaign after the first that qualifies
// (differingNodes).
func (r *Runner) references(cs []Campaign, units []unit) *references {
	if r.exec.Full || len(cs) < 2 {
		return nil
	}
	refs := &references{differ: make([][]bool, len(cs))}
	rounds := 0
	for _, un := range units {
		rounds = max(rounds, un.round+1)
	}
	refs.rounds = make([]refRound, rounds)
	found := false
	for c := 1; c < len(cs); c++ {
		refs.differ[c] = differingNodes(&cs[0], &cs[c], len(r.Net.Nodes))
	}
	for _, un := range units {
		if un.c != 0 && refs.differ[un.c] != nil {
			refs.rounds[un.round].users++
			found = true
		}
	}
	if !found {
		return nil
	}
	// The first campaign's unit of a round that has a reference reads its
	// count from the capture.
	for _, un := range units {
		if rr := &refs.rounds[un.round]; un.c == 0 && rr.users > 0 {
			rr.users++
		}
	}
	for i := range refs.rounds {
		refs.rounds[i].left = refs.rounds[i].users
	}
	refs.order = make([]int, len(units))
	for k := range refs.order {
		refs.order[k] = k
	}
	slices.SortStableFunc(refs.order, func(a, b int) int { return cmp.Compare(units[a].round, units[b].round) })
	return refs
}

// unit returns the offset into the call's range of the k-th unit to run.
func (refs *references) unit(k int) int {
	if refs == nil {
		return k
	}
	return refs.order[k]
}

// used reports whether unit un runs against its round's reference.
func (refs *references) used(un unit) bool {
	return refs != nil && refs.rounds[un.round].users > 0 && (un.c == 0 || refs.differ[un.c] != nil)
}

// referenceAgree runs unit un against its round's reference, capturing the
// reference first if no worker has yet, and returns its count.
func (r *Runner) referenceAgree(w *worker, cs []Campaign, refs *references, convSet map[int]struct{}, un unit) int {
	rr := &refs.rounds[un.round]
	plane, agree := rr.get(func() (*nn.Plane, int) {
		golden := r.goldenPlane(w)
		count := r.agreement(r.Net.ForwardDelta(w.ec, golden, nil, r.injector(&cs[0], convSet, un.round)))
		captured := r.Net.CaptureRound(w.ec, golden)
		if testHookCapture != nil {
			testHookCapture(captured)
		}
		return captured, count
	})
	if un.c != 0 {
		agree = r.agreement(r.Net.ForwardDelta(w.ec, plane, refs.differ[un.c], r.injector(&cs[un.c], convSet, un.round)))
	}
	rr.done()
	return agree
}

// get returns the round's reference and count, capturing them first if
// needed. Workers that need the round while it is being captured wait for
// it; a capture that panics leaves the round to the next worker.
func (rr *refRound) get(capture func() (*nn.Plane, int)) (*nn.Plane, int) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.plane == nil {
		rr.plane, rr.agree = capture()
	}
	return rr.plane, rr.agree
}

// done records that one user has finished with the round, releasing the
// reference after the last.
func (rr *refRound) done() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.left--; rr.left == 0 {
		rr.plane = nil
	}
}

// differingNodes returns the nodes at which campaign c's events may differ
// from ref's in any round, or nil when c cannot run against ref's rounds.
// The injector draws node li's events from (Seed, round, li), the BER, and
// these Options: Semantics, Intensity, MulFaultFree, AddFaultFree and HW
// alike for every node, and FaultFree[li] and Protection[li] for node li
// alone. NeuronIntensity is read only under neuron-flip semantics, whose
// damage no event locates, so they never qualify. So c qualifies iff it
// agrees with ref on the BER and the former, and differs exactly where
// the latter do.
func differingNodes(ref, c *Campaign, nodes int) []bool {
	a, b := &ref.Opts, &c.Opts
	if c.BER != ref.BER || a.Semantics == fault.NeuronFlip || b.Semantics != a.Semantics ||
		b.Seed != a.Seed || !slices.Equal(b.Intensity, a.Intensity) ||
		b.MulFaultFree != a.MulFaultFree || b.AddFaultFree != a.AddFaultFree || b.HW != a.HW {
		return nil
	}
	differ := make([]bool, nodes)
	mark := func(li int, differs bool) {
		if differs && li >= 0 && li < nodes {
			differ[li] = true
		}
	}
	for _, m := range []map[int]bool{a.FaultFree, b.FaultFree} {
		for li := range m {
			mark(li, a.FaultFree[li] != b.FaultFree[li])
		}
	}
	for _, m := range []map[int]fault.Protection{a.Protection, b.Protection} {
		for li := range m {
			mark(li, a.Protection[li] != b.Protection[li])
		}
	}
	return differ
}
