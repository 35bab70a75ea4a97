package winofault

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// distLayersReq is the Fig. 3 layer-sensitivity campaign wfbench's
// dist-layers workload sends through the coordinator.
func distLayersReq() CampaignRequest {
	return CampaignRequest{Model: "vgg19", Engine: "winograd", BERs: []float64{1e-10, 1e-9, 1e-8}, Layers: true, Seed: 1}
}

// TestDescriptionMatchesBuiltPlan is the oracle of NewPlan's description:
// over the zoo, both engines, sweep and layers campaigns, with and without a
// protection plan, under the statistical model and a stuck PE at bit 18, a
// plan from NewPlan — which builds nothing — lists the same phases and
// campaign batches (options, protection by node and scenario included),
// rejects the same counts with the same errors, and reduces random valid
// counts to the same marshaled bytes as a plan from a system New built.
func TestDescriptionMatchesBuiltPlan(t *testing.T) {
	rnd := rand.New(rand.NewPCG(7, 27))
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		for _, engine := range []string{"direct", "winograd"} {
			for _, scenario := range []*Scenario{nil, {Kind: "stuckpe", Row: 0, Col: 0, Bit: 18}} {
				base := CampaignRequest{
					Model: model, Engine: engine, InputSize: 16, Samples: 4, Rounds: 2, Seed: 5,
					BERs: []float64{0, 1e-9, 3e-9}, Scenario: scenario,
				}
				if scenario != nil {
					base.BERs = base.BERs[1:] // scenarios need positive BERs
				}
				cfg, err := base.SystemConfig()
				if err != nil {
					t.Fatal(err)
				}
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The reference takes its conv layers from the built
				// network, not from the geometry the description reads.
				conv := sys.runner.Net.ConvNodes()
				sys.conv = conv
				prot := map[string][2]float64{
					sys.arch.Ops[conv[0]].Name:           {1, 0.5},
					sys.arch.Ops[conv[len(conv)/2]].Name: {0.25, 0},
				}
				for _, layers := range []bool{false, true} {
					for _, protection := range []map[string][2]float64{nil, prot} {
						req := base
						req.Layers, req.Protection = layers, protection
						name := fmt.Sprintf("%s/%s/scenario=%v/layers=%v/protected=%v", model, engine, scenario != nil, layers, protection != nil)
						if err := sys.SetProtection(protection); err != nil {
							t.Fatal(err)
						}
						want, err := sys.Plan(req.BERs, layers)
						if err != nil {
							t.Fatal(err)
						}
						got, err := NewPlan(req)
						if err != nil {
							t.Fatal(err)
						}
						comparePlans(t, name, got, want, cfg.Samples, rnd)
					}
				}
			}
		}
	}
}

// comparePlans checks a described plan against a built one: phases,
// batches, count validation and reduction.
func comparePlans(t *testing.T, name string, got, want *Plan, samples int, rnd *rand.Rand) {
	t.Helper()
	if got.sys.runner != nil {
		t.Errorf("%s: NewPlan built an executor", name)
	}
	if !reflect.DeepEqual(got.Phases(), want.Phases()) {
		t.Fatalf("%s: phases %+v, want %+v", name, got.Phases(), want.Phases())
	}
	if !reflect.DeepEqual(got.batches, want.batches) || got.mid != want.mid {
		t.Errorf("%s: described campaign batches differ from the built system's", name)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var gotRes, wantRes CampaignResult
	for i, ph := range want.Phases() {
		counts := make([]int, ph.Units)
		for k := range counts {
			counts[k] = rnd.IntN(samples + 1)
		}
		for _, c := range []struct {
			lo, hi int
			counts []int
		}{
			{0, ph.Units, counts},
			{0, ph.Units + 1, append(counts, 0)},
			{1, 0, nil},
			{0, 1, []int{samples + 1}},
			{0, 1, []int{-1}},
			{0, 2, []int{0}},
		} {
			if g, w := errText(got.CheckCounts(i, c.lo, c.hi, c.counts)), errText(want.CheckCounts(i, c.lo, c.hi, c.counts)); g != w {
				t.Errorf("%s: phase %d CheckCounts [%d, %d) error %q, want %q", name, i, c.lo, c.hi, g, w)
			}
		}
		if g, w := errText(got.Reduce(&gotRes, i, counts)), errText(want.Reduce(&wantRes, i, counts)); g != "" || w != "" {
			t.Fatalf("%s: phase %d Reduce errors %q and %q", name, i, g, w)
		}
	}
	g, _ := json.Marshal(gotRes)
	w, _ := json.Marshal(wantRes)
	if string(g) != string(w) {
		t.Errorf("%s: reduced bytes\n%s\nwant\n%s", name, g, w)
	}
	if got.sys.runner != nil {
		t.Errorf("%s: CheckCounts or Reduce built an executor", name)
	}
}

// TestNewPlanAllocatesLittle: the description of the dist-layers campaign
// is a geometry walk, not a build: well under a megabyte, where New draws
// tens of megabytes of weights and activations.
func TestNewPlanAllocatesLittle(t *testing.T) {
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		if _, err := NewPlan(distLayersReq()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1<<20 {
		t.Errorf("NewPlan allocated %d bytes, want under 1 MB", per)
	}
}

// TestConcurrentFirstCountsBuildOnce: a described plan's concurrent first
// Counts calls build one executor — one build span, outside the calls'
// ranges — and each returns the counts a built system's plan does.
func TestConcurrentFirstCountsBuildOnce(t *testing.T) {
	req := CampaignRequest{Model: "vgg19", Engine: "winograd", InputSize: 16, Samples: 4, Rounds: 2, Seed: 3, BERs: []float64{1e-9, 1e-8}, Layers: true}
	plan, err := NewPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := req.SystemConfig()
	ref := planFor(t, cfg, req.BERs, true)
	tr := obs.NewRecorder(1).Begin("k")
	ctx := obs.With(context.Background(), obs.Obs{Trace: tr})
	units := plan.Phases()[1].Units
	var wg sync.WaitGroup
	for k := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := k*units/4, (k+1)*units/4
			got, err := plan.Counts(ctx, 1, lo, hi, nil)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := ref.Counts(context.Background(), 1, lo, hi, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("units [%d, %d): counts %v, want %v", lo, hi, got, want)
			}
		}()
	}
	wg.Wait()
	var builds []obs.SpanSnapshot
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "build" {
			builds = append(builds, sp)
		}
	}
	if len(builds) != 1 || builds[0].Open || builds[0].Attrs["model"] != "vgg19" || builds[0].Attrs["engine"] != "winograd" || builds[0].Attrs["workers"] == "" {
		t.Errorf("build spans %+v, want one closed span with model, engine and workers", builds)
	}
}

// BenchmarkNewPlan times the description of the dist-layers campaign, which
// a coordinator computes for every campaign it runs.
func BenchmarkNewPlan(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewPlan(distLayersReq()); err != nil {
			b.Fatal(err)
		}
	}
}
