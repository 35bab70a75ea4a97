package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"

	winofault "repro"
)

// TestMain selects the counting backend before any test resolves the
// process default, as a traced run does. The set-up children of a smoke run
// are copies of the test binary, which inherit that selection.
func TestMain(m *testing.M) {
	installCounting()
	os.Setenv("WF_BACKEND", countingName)
	runSetupChild()
	os.Exit(m.Run())
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredMetricsMatch checks that BENCHMARK.json declares exactly the
// metrics this program emits, with the same units and directions, and that
// every name and unit is well formed.
func TestDeclaredMetricsMatch(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []specMetric
		emitted  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Fatalf("%s: %d declared, %d emitted", c.kind, len(c.declared), len(c.emitted))
		}
		for i, d := range c.declared {
			e := c.emitted[i]
			if d.Name != e.name || d.Unit != e.unit || d.Better != e.better {
				t.Errorf("%s[%d]: declared %s %s %s, emitted %s %s %s", c.kind, i, d.Name, d.Unit, d.Better, e.name, e.unit, e.better)
			}
			if !validName.MatchString(d.Name) || !validUnit.MatchString(d.Unit) {
				t.Errorf("%s: malformed name %q or unit %q", c.kind, d.Name, d.Unit)
			}
			if (c.kind == "end_to_end") != (d.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", c.kind, d.Name, d.Bound != nil)
			}
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := tailOf(xs); got != 20 { // 21..30 lie beyond
		t.Errorf("tail of 1..30 = %v, want 20", got)
	}
	if got := tailOf(xs[:21]); got != 20 { // 21 of 30..10: 30..21 lie beyond
		t.Errorf("tail of 21 samples = %v, want 20", got)
	}
	if got := tailOf(xs[:20]); got != 0 {
		t.Errorf("tail of 20 samples = %v, want 0 (undefined)", got)
	}
}

// TestPlanDrawsDistinctDigests checks that every campaign a run can draw has
// a result digest no other campaign of its workload shares, so the gate
// tells each campaign's result from every other's, and that each model
// keeps at least half of its pinned pool.
func TestPlanDrawsDistinctDigests(t *testing.T) {
	digests, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		seen := map[string]string{}
		for m, model := range w.models {
			if len(digests[w.name][model]) != w.pool {
				t.Fatalf("%s %s: %d digests pinned, pool is %d", w.name, model, len(digests[w.name][model]), w.pool)
			}
			seeds := newPlan(w, 2, digests).seeds[m]
			if len(seeds) < w.pool/2 {
				t.Errorf("%s %s: %d of %d pool entries have a distinct digest", w.name, model, len(seeds), w.pool)
			}
			for _, seed := range seeds {
				d := digests.get(w.name, model, seed)
				at := fmt.Sprintf("%s seed %d", model, seed)
				if prev, dup := seen[d]; dup {
					t.Errorf("%s: %s and %s share digest %s", w.name, prev, at, d)
				}
				seen[d] = at
			}
		}
	}
}

func TestLPTMakespan(t *testing.T) {
	for _, c := range []struct {
		jobs []float64
		m    int
		want float64
	}{
		{[]float64{3, 3, 2, 2, 2}, 2, 7}, // LPT puts 3,2,2 on one machine; optimum is 6
		{[]float64{5, 1, 1, 1}, 2, 5},
		{[]float64{1, 1, 1, 1}, 2, 2},
		{[]float64{4}, 2, 4},
		{[]float64{2, 2}, 1, 4},
	} {
		if got := lptMakespan(c.jobs, c.m); got != c.want {
			t.Errorf("lptMakespan(%v, %d) = %v, want %v", c.jobs, c.m, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// smoke is the cheapest workload, run briefly with a one-campaign replay.
func smoke(t *testing.T, digests digestTable, trace int) report {
	t.Helper()
	w, err := workloadByName("service-mix")
	if err != nil {
		t.Fatal(err)
	}
	w.replay = 1
	dir := t.TempDir()
	rep, err := measureWorkload(w, digests, options{
		workload: w.name, seed: 2, seconds: 1, trace: trace, out: dir, work: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	digests, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		rep := smoke(t, digests, trace)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Fatalf("trace %d: correct=%v attempted=%d failed=%d errors=%v", trace, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
		}
		line, err := json.Marshal(rep.line())
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics emitted, %d declared", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %d: metric %s = %+v, want a value in %s", trace, d.name, m, d.unit)
			}
		}
		if trace == 0 {
			for _, d := range defs {
				if res.Metrics[d.name].Value != nil && *res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *res.Metrics[d.name].Value)
				}
			}
		}
	}
}

func TestTamperedDigestFailsTheRun(t *testing.T) {
	digests, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("service-mix")
	req, model, _ := newPlan(w, 2, digests).campaign(0, 0)
	tampered := digestTable{w.name: {}}
	for m, list := range digests[w.name] {
		tampered[w.name][m] = append([]string(nil), list...)
	}
	tampered[w.name][model][req.Seed-1] = "0000000000000000"
	rep := smoke(t, tampered, 0)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("tampered digest: correct=%v failed=%d, want a failed run", rep.Correct, rep.Failed)
	}
}

// TestForcedFullUnitCountsEveryMultiplication runs one fault-free unit with
// delta execution off and checks that the kernels perform exactly the
// network's multiplications per image times the images, on every model and
// engine. It also pins the layer-campaign table the inference count uses.
func TestForcedFullUnitCountsEveryMultiplication(t *testing.T) {
	off := false
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		for _, engine := range []winofault.Engine{winofault.Direct, winofault.Winograd} {
			const images = 2
			sys, err := winofault.New(winofault.Config{
				Model: model, Engine: engine, Samples: images, Rounds: 1, Workers: 1,
				DeltaExec: &off, Backend: countingName,
			})
			if err != nil {
				t.Fatal(err)
			}
			counter.on.Store(true)
			before := counter.snapshot()
			// A positive BER this small samples no faults, so no tile or row
			// leaves the kernels for fault replay.
			if _, err := sys.SweepCtx(context.Background(), []float64{1e-30}); err != nil {
				t.Fatal(err)
			}
			got := counter.snapshot().sub(before).macs()
			counter.on.Store(false)
			mul, _, _, _ := sys.OpCounts()
			if got != mul*images {
				t.Errorf("%s engine %d: %d kernel MACs, want %d (%d per image)", model, engine, got, mul*images, mul)
			}
			if want, ok := layerCampaigns[model]; ok && engine == winofault.Winograd {
				if n := sys.LayerUnits(1e-9); n != want { // one round
					t.Errorf("%s: LayerUnits = %d, table says %d", model, n, want)
				}
			}
		}
	}
}
