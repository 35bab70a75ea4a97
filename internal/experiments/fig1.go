package experiments

import (
	"repro/internal/fault"
	"repro/internal/nn"
)

// fig1BERs is the paper's Fig. 1 bit-error-rate axis, extended one decade to
// the right: our golden-agreement metric shifts the degradation cliff (see
// DESIGN.md "Substitutions"), and the extension makes the op-level ST/WG
// separation visible on the same plot without leaving the paper's points out.
var fig1BERs = []float64{7e-11, 1e-10, 3e-10, 5e-10, 7e-10, 9e-10, 3e-9, 9e-9}

// Fig1 reproduces Figure 1: operation-level fault injection separates
// standard from winograd convolution while neuron-level injection cannot.
// Benchmark: VGG19 int16 on CIFAR-100.
func Fig1(cfg Config) []*Figure {
	st := makeRig(cfg, "vgg19", nn.Direct, int16Fmt)
	wg := makeRig(cfg, "vgg19", nn.Winograd, int16Fmt)

	opSemantics := cfg.Semantics
	fig := &Figure{
		ID:     "fig1",
		Title:  "Neuron-level vs operation-level fault injection (VGG19 int16, CIFAR-100)",
		XLabel: "BER",
		YLabel: "accuracy %",
	}

	opCfg := cfg
	opCfg.Semantics = opSemantics
	fig.Series = append(fig.Series,
		st.accuracySeries(opCfg, "ST op-level", fig1BERs, st.opts(opCfg)),
		wg.accuracySeries(opCfg, "WG op-level", fig1BERs, wg.opts(opCfg)),
	)

	neuronCfg := cfg
	neuronCfg.Semantics = fault.NeuronFlip
	fig.Series = append(fig.Series,
		st.accuracySeries(neuronCfg, "ST neuron-level", fig1BERs, st.opts(neuronCfg)),
		wg.accuracySeries(neuronCfg, "WG neuron-level", fig1BERs, wg.opts(neuronCfg)),
	)

	// Quantify the separations the paper reports: neuron-level FI sees no
	// ST/WG difference; operation-level FI does.
	var opGap, neuGap float64
	for i := range fig1BERs {
		opGap += fig.Series[1].Y[i] - fig.Series[0].Y[i]
		neuGap += fig.Series[3].Y[i] - fig.Series[2].Y[i]
	}
	opGap /= float64(len(fig1BERs))
	neuGap /= float64(len(fig1BERs))
	fig.Notes = append(fig.Notes,
		note("mean WG-ST accuracy gap: op-level %.2f pp, neuron-level %.2f pp", opGap, neuGap),
		"paper: op-level separates the engines, neuron-level cannot")
	return []*Figure{fig}
}
