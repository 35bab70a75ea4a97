// Layer-wise analysis: reproduce the paper's Fig. 3 insight that a
// network's middle layers — the ones executing the most multiplications —
// are the most fault-sensitive, which is exactly what the fine-grained TMR
// planner exploits when ranking layers by vulnerability factor.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	winofault "repro"
)

func main() {
	sys, err := winofault.New(winofault.Config{
		Model:   "vgg19",
		Engine:  winofault.Winograd,
		Samples: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	const ber = 5e-9
	plan, err := sys.Plan([]float64{ber}, true) // layers run at the sweep's middle BER
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VGG19 (winograd engine), BER %.0e, all-faulty baseline %.1f%%\n\n", ber, res.Baseline*100)
	fmt.Printf("%-16s %9s %9s %14s  %s\n", "layer", "ff-acc%", "vuln pp", "muls (full)", "vulnerability")

	maxV := 0.0
	for _, l := range res.Layers {
		if l.Vulnerability > maxV {
			maxV = l.Vulnerability
		}
	}
	for _, l := range res.Layers {
		bar := ""
		if maxV > 0 && l.Vulnerability > 0 {
			bar = strings.Repeat("#", int(l.Vulnerability/maxV*30+0.5))
		}
		fmt.Printf("%-16s %9.1f %9.1f %14d  %s\n",
			l.Layer, l.FaultFreeAccuracy*100, l.Vulnerability*100, l.Muls, bar)
	}
	fmt.Println("\nlayers whose fault-free accuracy rises most above the baseline are the")
	fmt.Println("most critical; protect those first (the paper's TMR selection heuristic)")
}
