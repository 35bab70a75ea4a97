package faultsim

import (
	"cmp"
	"maps"
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
// A captured round outlives its call when a later call may need it: the
// runner keeps it, keyed by the first campaign and the round, so a later
// call over another range of the same batch — a dist worker's next shard of
// the phase — runs against it without capturing it again. Kept rounds stay
// until Release, within refBudget bytes. A round that does not fit, or whose
// users all run in the capturing call, is released after its last user in
// that call, which runs its units round-major, so at most its rounds in
// flight are held at once.

// refBudget bounds the bytes of activations a runner keeps in reference
// rounds. A round costs up to one golden plane, so it holds the two rounds
// of a default campaign (24 images) of every zoo model: about 15 MB for
// vgg19, 58 MB for googlenet.
const refBudget = 64 << 20

// roundStore is the reference rounds a runner keeps for later calls.
type roundStore struct {
	rounds []*keptRound
	bytes  int64 // activations the kept rounds copied
}

// keptRound is round round of campaign ref, captured by an earlier call.
type keptRound struct {
	ref   Campaign // a copy: the caller's maps and slices may change
	round int
	plane *nn.Plane
	agree int // ref's own count for the round
}

// find returns the kept round round of a campaign that draws exactly c's
// events at every node, so that the round is c's own, or nil.
func (s *roundStore) find(c *Campaign, round, nodes int) *keptRound {
	for _, k := range s.rounds {
		if k.round != round {
			continue
		}
		if d := differingNodes(&k.ref, c, nodes); d != nil && !slices.Contains(d, true) {
			return k
		}
	}
	return nil
}

// cloneCampaign copies c's maps and slices, so that the copy stays c's
// identity when the caller later changes them.
func cloneCampaign(c *Campaign) Campaign {
	k := *c
	k.Opts.Intensity = slices.Clone(c.Opts.Intensity)
	k.Opts.NeuronIntensity = slices.Clone(c.Opts.NeuronIntensity)
	k.Opts.FaultFree = maps.Clone(c.Opts.FaultFree)
	k.Opts.Protection = maps.Clone(c.Opts.Protection)
	return k
}

// references is the reference plan of one UnitCounts call. A nil
// *references runs every unit against the golden run, in unit order.
type references struct {
	// differ holds, per campaign after the first, the nodes at which its
	// events may differ from the first campaign's; nil for a campaign that
	// runs against the golden run.
	differ [][]bool
	rounds []refRound // per round; users 0 where no unit of the call needs one
	order  []int      // the call's units (offsets into its range), round-major
	gen    uint64     // the runner's Release count when the call was planned
}

// refRound is round r of the batch's first campaign: found kept by the
// runner, or captured by the first worker of the call that needs it, then
// shared read-only by the call's workers.
type refRound struct {
	mu    sync.Mutex
	plane *nn.Plane // nil before the capture and after the release
	agree int       // the first campaign's own count for the round
	users int       // the call's units that read it
	left  int       // users not yet done
	keep  bool      // a later call may need it: offer the capture to the runner
	kept  bool      // the runner keeps it, so the call never releases it
}

// testHookCapture, when set, sees every reference round a call captures.
var testHookCapture func(*nn.Plane)

// references plans the reference rounds of the call running units [lo, hi)
// of batch cs, whose units are units, or returns nil when no unit of the
// range runs against one: a full runner, or no campaign after the first that
// qualifies (differingNodes).
func (r *Runner) references(cs []Campaign, units []unit, lo, hi int) *references {
	if r.exec.Full || len(cs) < 2 {
		return nil
	}
	refs := &references{differ: make([][]bool, len(cs))}
	for c := 1; c < len(cs); c++ {
		refs.differ[c] = differingNodes(&cs[0], &cs[c], len(r.Net.Nodes))
	}
	rounds := 0
	for _, un := range units {
		rounds = max(rounds, un.round+1)
	}
	refs.rounds = make([]refRound, rounds)
	batch := make([]int, rounds) // per round, the batch's units that read it
	found := false
	for k, un := range units {
		if un.c == 0 || refs.differ[un.c] == nil {
			continue
		}
		batch[un.round]++
		if k >= lo && k < hi {
			refs.rounds[un.round].users++
			found = true
		}
	}
	if !found {
		return nil
	}
	for i := range refs.rounds {
		rr := &refs.rounds[i]
		rr.keep = rr.users > 0 && rr.users < batch[i]
	}
	// The first campaign's unit of a round that has a reference reads its
	// count from the capture.
	for _, un := range units[lo:hi] {
		if rr := &refs.rounds[un.round]; un.c == 0 && rr.users > 0 {
			rr.users++
		}
	}
	r.mu.Lock()
	refs.gen = r.gen
	for i := range refs.rounds {
		rr := &refs.rounds[i]
		rr.left = rr.users
		if rr.users == 0 {
			continue
		}
		if k := r.store.find(&cs[0], i, len(r.Net.Nodes)); k != nil {
			rr.plane, rr.agree, rr.kept = k.plane, k.agree, true
		}
	}
	r.mu.Unlock()
	refs.order = make([]int, hi-lo)
	for k := range refs.order {
		refs.order[k] = k
	}
	slices.SortStableFunc(refs.order, func(a, b int) int { return cmp.Compare(units[lo+a].round, units[lo+b].round) })
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
// reference first if the runner keeps none and no worker has yet, and
// returns its count.
func (r *Runner) referenceAgree(w *worker, cs []Campaign, refs *references, convSet map[int]struct{}, un unit) int {
	rr := &refs.rounds[un.round]
	plane, agree := rr.get(func() (*nn.Plane, int) {
		golden := r.goldenPlane(w)
		count := r.agreement(r.Net.ForwardDelta(w.ec, golden, nil, r.injector(&cs[0], convSet, un.round)))
		captured := r.Net.CaptureRound(w.ec, golden)
		if testHookCapture != nil {
			testHookCapture(captured)
		}
		rr.kept = rr.keep && r.keepRound(refs.gen, &cs[0], un.round, captured, golden, count)
		return captured, count
	})
	if un.c != 0 {
		agree = r.agreement(r.Net.ForwardDelta(w.ec, plane, refs.differ[un.c], r.injector(&cs[un.c], convSet, un.round)))
	}
	rr.done()
	return agree
}

// keepRound offers round round of campaign ref, captured against golden, to
// the runner's store, and reports whether the runner keeps it: not when it
// was released since gen, already keeps the round, or the round's copied
// activations do not fit refBudget.
func (r *Runner) keepRound(gen uint64, ref *Campaign, round int, plane, golden *nn.Plane, agree int) bool {
	var size int64
	for i := range r.Net.Nodes {
		if act := plane.Act(i); act != golden.Act(i) {
			size += 4 * int64(len(act.Data)) // int32 elements
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen != r.gen || r.store.bytes+size > refBudget || r.store.find(ref, round, len(r.Net.Nodes)) != nil {
		return false
	}
	r.store.rounds = append(r.store.rounds, &keptRound{ref: cloneCampaign(ref), round: round, plane: plane, agree: agree})
	r.store.bytes += size
	return true
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
// reference after the last unless the runner keeps it.
func (rr *refRound) done() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.left--; rr.left == 0 && !rr.kept {
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
