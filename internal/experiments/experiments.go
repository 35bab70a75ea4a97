// Package experiments regenerates every table and figure of the paper's
// evaluation: Fig. 1 (operation- vs neuron-level fault injection), Fig. 2
// (network-wise accuracy under BER sweeps), Fig. 3 (layer-wise sensitivity),
// Fig. 4 (operation-type sensitivity), Fig. 5 (fine-grained TMR overhead),
// Fig. 6 (accelerator voltage vs BER vs accuracy), Fig. 7 (voltage-scaled
// energy), the headline summary numbers, and two reproduction-specific
// ablations (fault semantics, winograd tile size).
//
// Experiments run on width/resolution-scaled models whose fault intensities
// are pinned to the full-size architectures' operation counts, so the BER
// axes match the paper (see DESIGN.md). Accuracy is golden-agreement
// accuracy in percent; paper accuracy targets are mapped to the same
// fractions of the fault-free accuracy.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/fixed"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/winograd"
)

// Config sets the scale/sampling budget of an experiment run.
type Config struct {
	// Scale is the model scaling used for simulation (full-size intensities
	// are always derived from the unscaled architectures).
	Scale models.Options
	// Samples is the number of evaluation images.
	Samples int
	// Rounds is the Monte-Carlo fault rounds per accuracy point.
	Rounds int
	// Seed drives datasets, weights and fault sampling.
	Seed uint64
	// Semantics is the operation-level injection semantics (ResultFlip is
	// the platform default, matching the paper's stated methodology).
	Semantics fault.Semantics
	// Tile is the winograd algorithm (F2 default).
	Tile *winograd.Tile
	// Workers caps the parallelism of each rig's build and golden pass and
	// of the fault campaigns (0 = GOMAXPROCS). Figures are bit-identical for
	// every worker count.
	Workers int
}

// Quick is the default experiment budget: eighth-width models at 32x32 with
// a modest Monte-Carlo budget. One figure regenerates in seconds to minutes.
func Quick() Config {
	return Config{
		Scale:   models.Options{WidthMult: 0.125, InputSize: 32},
		Samples: 24,
		Rounds:  2,
		Seed:    1,
	}
}

// Smoke is the tiny budget used by unit tests and -short benchmarks.
func Smoke() Config {
	return Config{
		Scale:   models.Options{WidthMult: 0.125, InputSize: 16},
		Samples: 8,
		Rounds:  1,
		Seed:    1,
	}
}

func (c Config) tile() *winograd.Tile {
	if c.Tile == nil {
		return winograd.F2
	}
	return c.Tile
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced figure: series plus free-form notes, rendered as
// aligned text columns.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes the figure as a column table.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		fmt.Fprintf(w, "%-14s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%16s", s.Name)
		}
		fmt.Fprintln(w)
		for i := range f.Series[0].X {
			fmt.Fprintf(w, "%-14.3g", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(w, "%16.4g", s.Y[i])
				} else {
					fmt.Fprintf(w, "%16s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// Shared format shorthands.
var (
	int16Fmt = fixed.Int16
	int8Fmt  = fixed.Int8
)

// note formats a figure annotation.
func note(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// rig bundles one evaluated network configuration.
type rig struct {
	name      string
	kind      nn.EngineKind
	fmtW      fixed.Format
	arch      *models.Arch
	fullArch  *models.Arch
	runner    *faultsim.Runner
	intensity []fault.Census
	neurons   []int64
}

// makeRig builds a scaled network of the given engine kind plus its
// paper-scale fault intensities and an evaluation set.
func makeRig(cfg Config, model string, kind nn.EngineKind, f fixed.Format) *rig {
	arch, err := models.ByName(model, cfg.Scale)
	if err != nil {
		panic(err)
	}
	full, _ := models.ByName(model, models.Options{})
	netCfg := nn.Config{Kind: kind, Tile: cfg.tile(), ActFmt: f, WFmt: f, Seed: cfg.Seed ^ 0xabcdef}
	net := models.Build(arch, netCfg, cfg.Workers)
	set := dataset.ForModel(arch.Dataset, cfg.Samples, arch.In.H, cfg.Seed^0x5eed, f)
	return &rig{
		name:      model,
		kind:      kind,
		fmtW:      f,
		arch:      arch,
		fullArch:  full,
		runner:    faultsim.New(net, set.Batch(0, cfg.Samples), faultsim.Exec{Workers: cfg.Workers}),
		intensity: models.IntensityFor(arch, full, kind, cfg.tile()),
		neurons:   models.NeuronIntensityFor(arch, full),
	}
}

// opts returns campaign options for the rig under the config's semantics.
func (r *rig) opts(cfg Config) faultsim.Options {
	return faultsim.Options{
		Semantics:       cfg.Semantics,
		Seed:            cfg.Seed ^ uint64(len(r.name))<<32 ^ uint64(r.kind),
		Intensity:       r.intensity,
		NeuronIntensity: r.neurons,
	}
}

// accuracySeries sweeps BER and returns a percent-accuracy series.
func (r *rig) accuracySeries(cfg Config, name string, bers []float64, opts faultsim.Options) Series {
	pts := r.runner.Sweep(context.Background(), bers, opts, cfg.Rounds)
	s := Series{Name: name, X: bers}
	for _, p := range pts {
		s.Y = append(s.Y, p.Accuracy*100)
	}
	return s
}

// Registry maps experiment IDs to their runner functions.
type Runner func(cfg Config) []*Figure

// Registry lists all reproducible experiments by ID.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig1":      Fig1,
		"fig2":      Fig2,
		"fig3":      Fig3,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"fig6":      Fig6,
		"fig7":      Fig7,
		"headline":  Headline,
		"semantics": AblationSemantics,
		"tile":      AblationTile,
		"hwfault":   AblationHWFault,
	}
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	r := Registry()
	ids := make([]string, 0, len(r))
	for id := range r {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID and renders it to w.
func Run(id string, cfg Config, w io.Writer) error {
	fn, ok := Registry()[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q (want one of %s)", id, strings.Join(IDs(), ", "))
	}
	for _, f := range fn(cfg) {
		f.Render(w)
	}
	return nil
}
