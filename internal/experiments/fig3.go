package experiments

import (
	"context"

	"repro/internal/nn"
)

// Fig3 reproduces Figure 3: VGG19 (int16, CIFAR-100) accuracy with exactly
// one layer kept fault-free while the rest of the network is injected at a
// stress BER, for both engines, alongside the per-layer multiplication count
// of the full-size network that the paper correlates the sensitivity with.
// The paper ran at BER 3e-10; like Fig. 5, the harness calibrates the BER so
// the all-faulty baseline sits at the paper's operating point (the
// golden-agreement metric shifts the cliff; see DESIGN.md "Substitutions").
func Fig3(cfg Config) []*Figure {
	st := makeRig(cfg, "vgg19", nn.Direct, int16Fmt)
	wg := makeRig(cfg, "vgg19", nn.Winograd, int16Fmt)
	fig3BER := stressBER(st, st.opts(cfg), cfg.Rounds)

	ctx := context.Background()
	stBase, stPer := st.runner.LayerSensitivity(ctx, fig3BER, st.opts(cfg), cfg.Rounds)
	wgBase, wgPer := wg.runner.LayerSensitivity(ctx, fig3BER, wg.opts(cfg), cfg.Rounds)

	// The paper's layer axis covers the 16 spatial convolutions; FC layers
	// (also ConvOps internally) are excluded.
	var convNodes []int
	for _, li := range st.runner.Net.ConvNodes() {
		if st.arch.Ops[li].Kind == "conv" {
			convNodes = append(convNodes, li)
		}
	}
	wgConvNodes := convNodes // identical graph indices across engines

	fig := &Figure{
		ID:     "fig3",
		Title:  "Layer-wise sensitivity: one fault-free layer, rest faulty (VGG19 int16)",
		XLabel: "conv layer #",
		YLabel: "accuracy % / op count",
	}
	var xs, stY, wgY, muls []float64
	for i, li := range convNodes {
		xs = append(xs, float64(i+1))
		stY = append(stY, stPer[li]*100)
		wgY = append(wgY, wgPer[wgConvNodes[i]]*100)
		// Full-size multiplication count of this layer (direct engine), the
		// paper's secondary axis (in 1e8 units to keep columns readable).
		muls = append(muls, float64(st.intensity[li].Mul)/1e8)
	}
	fig.Series = []Series{
		{Name: "ST-Conv", X: xs, Y: stY},
		{Name: "WG-Conv", X: xs, Y: wgY},
		{Name: "#Mul(1e8)", X: xs, Y: muls},
	}
	fig.Notes = append(fig.Notes,
		note("stress BER calibrated to %.2e (paper operated at 3e-10)", fig3BER),
		note("ST-Conv-Base %.1f%%, WG-Conv-Base %.1f%% (all layers faulty)", stBase*100, wgBase*100),
		"paper: mid-network layers with the most multiplications are the most sensitive;"+
			" WG-Conv sits above ST-Conv at every layer")
	return []*Figure{fig}
}
