// Command wfsim runs ad-hoc operation-level fault-injection campaigns:
// pick a benchmark model, engine, precision and BER range, get the
// golden-agreement accuracy table.
//
// Usage:
//
//	wfsim -model vgg19 -engine winograd -prec int16 -bers 1e-10,1e-9,1e-8
//	wfsim -model resnet50 -engine direct -semantics result -layers
//	wfsim -model vgg19 -engine winograd -scenario stuckpe -pe 0,0 -stuck-bit 24
//	wfsim -model vgg19 -scenario voltregion -region 0,0,3,3 -vregion 0.75
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	winofault "repro"
)

func main() {
	model := flag.String("model", "vgg19", "vgg19|resnet50|densenet169|googlenet")
	engine := flag.String("engine", "direct", "direct|winograd")
	prec := flag.String("prec", "int16", "int8|int16")
	semantics := flag.String("semantics", "result", "result|operand|neuron")
	bers := flag.String("bers", "1e-11,1e-10,1e-9,1e-8,1e-7", "comma-separated bit error rates")
	width := flag.Float64("width", 0.125, "model width multiplier (1 = paper scale)")
	input := flag.Int("input", 32, "input resolution")
	samples := flag.Int("samples", 24, "evaluation images")
	rounds := flag.Int("rounds", 2, "Monte-Carlo rounds")
	seed := flag.Uint64("seed", 1, "root seed")
	workers := flag.Int("workers", 0, "campaign worker count (0 = GOMAXPROCS; results are identical for any value)")
	delta := flag.Bool("delta", true, "fault-cone delta execution: recompute only dirty nodes per round (results are identical on or off)")
	backend := flag.String("backend", "", "compute backend: blocked|scalar (\"\" = process default: blocked, or WF_BACKEND; results are identical for every backend)")
	layers := flag.Bool("layers", false, "also print per-layer sensitivity at the middle BER")
	scenario := flag.String("scenario", "", "hardware-located faults: stuckpe|burst|voltregion (default: statistical model)")
	pe := flag.String("pe", "0,0", "stuckpe: \"row,col\" of the stuck PE (-1 = sampled from the seed)")
	stuckBit := flag.Int("stuck-bit", -1, "stuckpe: corrupted product-register bit (-1 = sampled from the seed)")
	burstSpan := flag.Int("burst-span", 0, "burst: MAC slots corrupted per burst (0 = default 64)")
	region := flag.String("region", "0,0,3,3", "voltregion: inclusive \"row0,col0,row1,col1\" PE rectangle")
	vregion := flag.Float64("vregion", 0.75, "voltregion: supply voltage of the stressed region")
	flag.Parse()

	// The flags spell a wire request, so wfsim accepts exactly the enum
	// spellings the service does and shares its translation to a Config.
	req := winofault.CampaignRequest{
		Model:     *model,
		Engine:    *engine,
		Precision: *prec,
		Semantics: *semantics,
		WidthMult: *width,
		InputSize: *input,
		Samples:   *samples,
		Rounds:    *rounds,
		Seed:      *seed,
		Workers:   *workers,
		DeltaExec: delta,
		Backend:   *backend,
	}
	switch *scenario {
	case "":
	case "stuckpe":
		p := parseInts(*pe, 2, "pe")
		req.Scenario = &winofault.Scenario{Kind: "stuckpe", Row: p[0], Col: p[1], Bit: *stuckBit}
	case "burst":
		req.Scenario = &winofault.Scenario{Kind: "burst", Span: *burstSpan}
	case "voltregion":
		r := parseInts(*region, 4, "region")
		req.Scenario = &winofault.Scenario{Kind: "voltregion",
			Row0: r[0], Col0: r[1], Row1: r[2], Col1: r[3], V: *vregion}
	default:
		fatal("unknown scenario %q (want stuckpe, burst or voltregion)", *scenario)
	}
	for _, s := range strings.Split(*bers, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal("bad BER %q: %v", s, err)
		}
		req.BERs = append(req.BERs, v)
	}

	// Build the whole plan first, so an invalid request fails before any output.
	cfg, err := req.SystemConfig()
	if err != nil {
		fatal("%v", err)
	}
	sys, err := winofault.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	plan, err := sys.Plan(req.BERs, *layers)
	if err != nil {
		fatal("%v", err)
	}
	sm, sa, fm, fa := sys.OpCounts()
	if *scenario != "" {
		fmt.Printf("%s / %s / %s / %s scenario\n", *model, *engine, *prec, *scenario)
	} else {
		fmt.Printf("%s / %s / %s / %s semantics\n", *model, *engine, *prec, *semantics)
	}
	fmt.Printf("ops per image: scaled %.3gM mul + %.3gM add; full-size %.3gG mul + %.3gG add\n",
		float64(sm)/1e6, float64(sa)/1e6, float64(fm)/1e9, float64(fa)/1e9)
	res, err := plan.Run(context.Background(), nil)
	if err != nil {
		fatal("%v", err)
	}
	// The table renderer is shared with the wfserve text endpoint so CI can
	// diff server and CLI output byte-for-byte.
	winofault.FormatSweep(os.Stdout, res.Points)

	if *layers {
		mid := req.BERs[len(req.BERs)/2] // where the plan's layers phase runs
		fmt.Printf("\nlayer sensitivity at BER %.3g (baseline %.2f%%):\n", mid, res.Baseline*100)
		fmt.Printf("%-24s %10s %10s %12s\n", "layer", "ff-acc%", "vuln pp", "muls(full)")
		for _, l := range res.Layers {
			fmt.Printf("%-24s %10.2f %10.2f %12d\n",
				l.Layer, l.FaultFreeAccuracy*100, l.Vulnerability*100, l.Muls)
		}
	}
}

// parseInts parses a comma-separated list of exactly n integers.
func parseInts(s string, n int, flagName string) []int {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		fatal("-%s %q: want %d comma-separated integers", flagName, s, n)
	}
	out := make([]int, n)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fatal("-%s %q: %v", flagName, s, err)
		}
		out[i] = v
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfsim: "+format+"\n", args...)
	os.Exit(1)
}
