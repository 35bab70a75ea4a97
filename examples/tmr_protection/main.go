// TMR protection: plan the paper's fine-grained triple-modular-redundancy
// (Section 4.1) for a standard-convolution network and its winograd twin,
// and compare the protection overhead needed to reach the same accuracy
// goal — fault-tolerance-aware winograd needs far less.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	winofault "repro"
)

func main() {
	const (
		ber    = 5e-9 // stress level with visible degradation at example scale
		target = 0.90 // accuracy goal (fraction of golden)
	)

	for _, engine := range []winofault.Engine{winofault.Direct, winofault.Winograd} {
		name := "ST-Conv"
		if engine == winofault.Winograd {
			name = "WG-Conv (fault-tolerance aware)"
		}
		sys, err := winofault.New(winofault.Config{
			Model:  "vgg19",
			Engine: engine,
			// Small budget so the example finishes in tens of seconds.
			Samples: 12, Rounds: 2,
		})
		if err != nil {
			log.Fatal(err)
		}

		unprotected, err := sys.Plan([]float64{ber}, false)
		if err != nil {
			log.Fatal(err)
		}
		res, err := unprotected.Run(context.Background(), nil)
		if err != nil {
			log.Fatal(err)
		}
		before := res.Points[0].Accuracy
		plan := sys.OptimizeTMR(ber, target)
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("accuracy unprotected: %.1f%%  ->  with plan: %.1f%% (goal %.0f%%)\n",
			before*100, plan.Accuracy*100, target*100)
		fmt.Printf("TMR overhead: %.3gG extra ops = %.1f%% of full TMR\n",
			float64(plan.OverheadOps)/1e9, plan.OverheadFraction*100)

		// Show the most protected layers (multiplications first, as the
		// operation-type analysis dictates).
		type row struct {
			layer    string
			mul, add float64
		}
		var rows []row
		for l, fr := range plan.Layers {
			if fr[0] > 0 || fr[1] > 0 {
				rows = append(rows, row{l, fr[0], fr[1]})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].mul+rows[i].add > rows[j].mul+rows[j].add })
		for i, r := range rows {
			if i == 5 {
				fmt.Printf("  ... and %d more layers\n", len(rows)-5)
				break
			}
			fmt.Printf("  %-20s protect %3.0f%% of muls, %3.0f%% of adds\n", r.layer, r.mul*100, r.add*100)
		}
		fmt.Println()
	}
}
