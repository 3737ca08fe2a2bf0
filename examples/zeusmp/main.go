// Zeus-MP case study (paper §VI-D1).
//
//	go run ./examples/zeusmp
//
// Diagnoses the busy-rank bval3d boundary loop behind the dt-Allreduce
// scaling loss, then verifies the paper's fix (MPI+OpenMP bval3d, tiled
// hsmoc) by comparing the original and optimized ports.
package main

import (
	"fmt"
	"log"

	"scalana/internal/detect"
	"scalana/internal/prof"

	scalana "scalana"
)

func main() {
	app := scalana.GetApp("zeusmp")
	prog, _, err := scalana.Compile(app)
	if err != nil {
		log.Fatal(err)
	}

	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	e := scalana.NewEngine()
	runs, err := e.Sweep(app, []int{8, 16, 32, 64}, scalana.SweepConfig{Prof: cfg})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render(prog))

	// Verify the fix at np=64.
	orig, err := e.Run(scalana.RunConfig{App: app, NP: 64})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := e.Run(scalana.RunConfig{App: scalana.GetApp("zeusmp-opt"), NP: 64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplying the paper's fixes (OpenMP bval3d + tiled hsmoc) at np=64:\n")
	fmt.Printf("  original:  %.4fs\n  optimized: %.4fs (%.1f%% faster)\n",
		orig.Result.Elapsed, opt.Result.Elapsed,
		100*(orig.Result.Elapsed-opt.Result.Elapsed)/orig.Result.Elapsed)
}
