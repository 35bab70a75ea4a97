package winofault_test

import (
	"context"
	"fmt"
	"log"
	"os"

	winofault "repro"
)

// ExampleNew shows the one-call setup of an evaluated system and the
// operation-census comparison at the heart of the paper: winograd executes
// the same network with ~2.25x fewer multiplications.
func ExampleNew() {
	st, err := winofault.New(winofault.Config{Model: "vgg19", Engine: winofault.Direct})
	if err != nil {
		log.Fatal(err)
	}
	wg, err := winofault.New(winofault.Config{Model: "vgg19", Engine: winofault.Winograd})
	if err != nil {
		log.Fatal(err)
	}
	_, _, stMul, _ := st.OpCounts()
	_, _, wgMul, _ := wg.OpCounts()
	fmt.Printf("direct %.2fG muls, winograd %.2fG muls, ratio %.2f\n",
		float64(stMul)/1e9, float64(wgMul)/1e9, float64(stMul)/float64(wgMul))
	// Output: direct 0.40G muls, winograd 0.18G muls, ratio 2.25
}

// ExamplePlan_Run runs a campaign in-process: a BER sweep whose BER 0 point
// shows the golden-agreement contract — with no faults injected, the system
// agrees with itself perfectly.
func ExamplePlan_Run() {
	sys, err := winofault.New(winofault.Config{Model: "googlenet", Samples: 8, InputSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Plan([]float64{0, 1e-8, 1e-7}, false)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	winofault.FormatSweep(os.Stdout, res.Points)
	// Output:
	// BER          accuracy%
	// 0            100.00
	// 1e-08        100.00
	// 1e-07        87.50
}
