package winofault

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func testConfig(engine Engine) Config {
	return Config{
		Model:     "vgg19",
		Engine:    engine,
		WidthMult: 0.125,
		InputSize: 16,
		Samples:   8,
		Rounds:    1,
		Seed:      3,
	}
}

// runPlan runs the campaign (bers, layers) on sys through its plan.
func runPlan(t testing.TB, sys *System, bers []float64, layers bool) *CampaignResult {
	t.Helper()
	p, err := sys.Plan(bers, layers)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// accuracy runs a one-point sweep at ber on sys.
func accuracy(t testing.TB, sys *System, ber float64) float64 {
	t.Helper()
	return runPlan(t, sys, []float64{ber}, false).Points[0].Accuracy
}

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.GoldenPredictions()); got != 24 {
		t.Errorf("default samples = %d, want 24", got)
	}
	if acc := accuracy(t, sys, 0); acc != 1 {
		t.Errorf("accuracy at BER 0 = %v", acc)
	}
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New(Config{Model: "alexnet"}); err == nil {
		t.Error("unknown model did not error")
	}
}

func TestSweepAndOpCounts(t *testing.T) {
	st, err := New(testConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	wg, err := New(testConfig(Winograd))
	if err != nil {
		t.Fatal(err)
	}
	_, _, stMul, _ := st.OpCounts()
	_, _, wgMul, _ := wg.OpCounts()
	if wgMul >= stMul {
		t.Errorf("winograd full-size muls %d not below direct %d", wgMul, stMul)
	}
	pts := runPlan(t, st, []float64{0, 1e-8}, false).Points
	if len(pts) != 2 || pts[0].Accuracy != 1 {
		t.Errorf("sweep malformed: %+v", pts)
	}
	if pts[1].Accuracy > pts[0].Accuracy {
		t.Error("accuracy rose with BER")
	}
}

func TestLayerSensitivities(t *testing.T) {
	sys, err := New(testConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, sys, []float64{3e-9}, true)
	base, layers := res.Baseline, res.Layers
	if base < 0 || base > 1 {
		t.Errorf("baseline = %v", base)
	}
	if len(layers) == 0 {
		t.Fatal("no layers")
	}
	for _, l := range layers {
		if l.Layer == "" || l.Muls <= 0 {
			t.Errorf("malformed layer entry: %+v", l)
		}
	}
}

func TestOptimizeTMR(t *testing.T) {
	sys, err := New(testConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	const ber = 3e-9
	before := accuracy(t, sys, ber)
	plan := sys.OptimizeTMR(ber, before+(1-before)*0.5)
	if plan.Accuracy < before-0.2 {
		t.Errorf("plan accuracy %v collapsed below unprotected %v", plan.Accuracy, before)
	}
	if plan.OverheadFraction < 0 || plan.OverheadFraction > 1 {
		t.Errorf("overhead fraction %v out of range", plan.OverheadFraction)
	}
}

func TestExploreEnergy(t *testing.T) {
	sys, err := New(testConfig(Winograd))
	if err != nil {
		t.Fatal(err)
	}
	pts := sys.ExploreEnergy([]float64{1, 10})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Voltage < 0.7 || p.Voltage > 0.9 {
			t.Errorf("voltage %v out of range", p.Voltage)
		}
		if p.NormalizedEnergy <= 0 || p.NormalizedEnergy > 1.01 {
			t.Errorf("energy %v out of range", p.NormalizedEnergy)
		}
	}
	if pts[1].NormalizedEnergy > pts[0].NormalizedEnergy+1e-9 {
		t.Error("looser loss budget should not cost more energy")
	}
}

func TestRunExperimentBudgets(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("tile", "smoke", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ablation-tile") {
		t.Error("experiment output missing figure id")
	}
	if err := RunExperiment("fig1", "nope", &buf); err == nil {
		t.Error("bad budget did not error")
	}
	if err := RunExperiment("nope", "smoke", &buf); err == nil {
		t.Error("bad id did not error")
	}
}

func TestExperimentsList(t *testing.T) {
	ids := Experiments()
	if len(ids) < 8 {
		t.Errorf("expected at least 8 experiments, got %v", ids)
	}
}

func TestSemanticsSelection(t *testing.T) {
	for _, sem := range []Semantics{ResultFlip, OperandFlip, NeuronFlip} {
		cfg := testConfig(Direct)
		cfg.Semantics = sem
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if acc := accuracy(t, sys, 1e-9); acc < 0 || acc > 1 {
			t.Errorf("semantics %v: accuracy %v", sem, acc)
		}
	}
}

// TestFormatSweepGoldenBytes pins the exact rendered bytes of the canonical
// accuracy table — the one renderer wfsim stdout and the wfserve
// `?format=text` endpoint share, and that CI diffs byte-for-byte between
// CLI, server and distributed runs. Any drift in the header, column widths,
// float formatting or line endings fails here before it fails in CI.
func TestFormatSweepGoldenBytes(t *testing.T) {
	var b strings.Builder
	FormatSweep(&b, []Point{
		{BER: 0, Accuracy: 1},
		{BER: 1e-10, Accuracy: 0.96875},
		{BER: 3.5e-9, Accuracy: 0.5},
		{BER: 1e-7, Accuracy: 0.0625},
		{BER: 0.25, Accuracy: 0},
	})
	want := "BER          accuracy%\n" +
		"0            100.00\n" +
		"1e-10        96.88\n" +
		"3.5e-09      50.00\n" +
		"1e-07        6.25\n" +
		"0.25         0.00\n"
	if b.String() != want {
		t.Errorf("FormatSweep bytes drifted:\n got %q\nwant %q", b.String(), want)
	}
}

// TestFormatSweepGoldenCampaigns pins rendered tables for real campaigns —
// a protected winograd VGG19 and a second model — so the golden bytes cover
// the protection path and multi-model rendering, not just the formatter.
// (Accuracies here are bit-exact by the scheduler's determinism guarantee;
// cf. TestGoldenAccuracyFixture.)
func TestFormatSweepGoldenCampaigns(t *testing.T) {
	bers := []float64{1e-10, 1e-9, 1e-8}
	cases := []struct {
		name       string
		cfg        Config
		protection map[string][2]float64
		want       string
	}{
		{
			name: "vgg19-winograd-protected",
			cfg:  Config{Model: "vgg19", Engine: Winograd, InputSize: 16, Samples: 8, Rounds: 2, Seed: 3},
			protection: map[string][2]float64{
				"conv1_1": {1, 0.5},
				"conv1_2": {0.75, 0.25},
			},
			want: "BER          accuracy%\n1e-10        100.00\n1e-09        87.50\n1e-08        62.50\n",
		},
		{
			name: "googlenet-direct",
			cfg:  Config{Model: "googlenet", Engine: Direct, InputSize: 16, Samples: 8, Rounds: 2, Seed: 3},
			want: "BER          accuracy%\n1e-10        81.25\n1e-09        62.50\n1e-08        62.50\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.protection != nil {
				if err := sys.SetProtection(tc.protection); err != nil {
					t.Fatal(err)
				}
			}
			var b strings.Builder
			FormatSweep(&b, runPlan(t, sys, bers, false).Points)
			if b.String() != tc.want {
				t.Errorf("rendered table drifted:\n got %q\nwant %q", b.String(), tc.want)
			}
		})
	}
}

func TestPrecisionAndTileSelection(t *testing.T) {
	cfg := testConfig(Winograd)
	cfg.Precision = Int8
	cfg.TileF4 = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, sys, 0); acc != 1 {
		t.Errorf("golden accuracy = %v", acc)
	}
}
