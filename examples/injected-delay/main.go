// Injected-delay demo: the paper's Fig. 2 motivating example.
//
//	go run ./examples/injected-delay
//
// NPB-CG runs with a delay injected on rank 4. The delay propagates to
// other ranks through the sendrecv chains of the conjugate-gradient
// butterfly; pure hot-spot profiling sees busy sendrecvs everywhere, while
// ScalAna's backtracking follows the waits across ranks to the injected
// computation.
package main

import (
	"fmt"
	"log"

	"scalana/internal/detect"
	"scalana/internal/prof"

	scalana "scalana"
)

func main() {
	app := scalana.GetApp("cg-delay")
	prog, _, err := scalana.Compile(app)
	if err != nil {
		log.Fatal(err)
	}

	cfg := prof.DefaultConfig()
	cfg.SampleHz = 5000
	runs, err := scalana.NewEngine().Sweep(app, []int{8}, scalana.SweepConfig{Prof: cfg})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("ScalAna report for NPB-CG with a delay injected on rank 4:")
	fmt.Println()
	fmt.Print(rep.Render(prog))

	fmt.Println()
	for _, ab := range rep.Abnormal {
		for _, r := range ab.OutlierRanks {
			if r == 4 {
				fmt.Printf("=> the injected delay on rank 4 was found: %s:%d\n",
					ab.Vertex.Pos.File, ab.Vertex.Pos.Line)
				return
			}
		}
	}
	fmt.Println("(delay not flagged — try a higher sampling rate)")
}
