// Quickstart: build the paper's VGG19 benchmark under both convolution
// engines and watch winograd's inherent fault tolerance appear as the bit
// error rate grows — the headline observation of the paper, in ~50 lines.
package main

import (
	"context"
	"fmt"
	"log"

	winofault "repro"
)

func main() {
	bers := []float64{1e-10, 1e-9, 3e-9, 1e-8}

	st, stPts := evaluate(winofault.Direct, bers)
	wg, wgPts := evaluate(winofault.Winograd, bers)

	_, _, stMul, _ := st.OpCounts()
	_, _, wgMul, _ := wg.OpCounts()
	fmt.Printf("VGG19 full-size multiplications: direct %.2fG, winograd %.2fG (%.2fx fewer)\n\n",
		float64(stMul)/1e9, float64(wgMul)/1e9, float64(stMul)/float64(wgMul))

	fmt.Printf("%-10s %12s %12s %8s\n", "BER", "ST-Conv %", "WG-Conv %", "gap pp")
	for i := range bers {
		fmt.Printf("%-10.0e %12.2f %12.2f %8.2f\n",
			bers[i], stPts[i].Accuracy*100, wgPts[i].Accuracy*100,
			(wgPts[i].Accuracy-stPts[i].Accuracy)*100)
	}
	fmt.Println("\n(accuracy = agreement with the fault-free golden predictions;" +
		" winograd executes ~2x fewer of the vulnerable multiplications)")
}

// evaluate builds VGG19 on the given engine and runs a BER sweep campaign.
func evaluate(engine winofault.Engine, bers []float64) (*winofault.System, []winofault.Point) {
	sys, err := winofault.New(winofault.Config{Model: "vgg19", Engine: engine})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Plan(bers, false)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	return sys, res.Points
}
