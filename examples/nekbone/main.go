// Nekbone case study (paper §VI-D3).
//
//	go run ./examples/nekbone
//
// Diagnoses the memory-bound dgemm loop running on cores with unequal
// memory speed: TOT_LST_INS is uniform across ranks while TOT_CYC is not,
// so the imbalance is architectural, not algorithmic. The fix (a blocked
// BLAS) removes the memory sensitivity.
package main

import (
	"fmt"
	"log"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/fit"
	"scalana/internal/machine"
	"scalana/internal/prof"

	scalana "scalana"
)

func main() {
	app := scalana.GetApp("nekbone")
	prog, _, err := scalana.Compile(app)
	if err != nil {
		log.Fatal(err)
	}

	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	e := scalana.NewEngine()
	runs, err := e.Sweep(app, []int{4, 8, 16, 32}, scalana.SweepConfig{Prof: cfg})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render(prog))

	fmt.Println("\nPMU evidence in dgemm (np=32):")
	dgemmStats := func(name string) (lst, cycCV float64) {
		out, err := e.Run(scalana.RunConfig{
			App: scalana.GetApp(name), NP: 32, Tool: scalana.ToolScalAna, Prof: cfg})
		if err != nil {
			log.Fatal(err)
		}
		lstSum := make([]float64, out.NP)
		cycSum := make([]float64, out.NP)
		keys := out.PPG().PSG.Keys()
		for _, vid := range out.PPG().PresentVIDs() {
			if !strings.Contains(keys[vid], "@dgemm") {
				continue
			}
			for i, v := range out.PPG().PMUSeries(vid, machine.TotLstIns) {
				lstSum[i] += v
			}
			for i, v := range out.PPG().PMUSeries(vid, machine.TotCyc) {
				cycSum[i] += v
			}
		}
		return fit.Mean(lstSum), fit.Stddev(cycSum) / fit.Mean(cycSum)
	}
	origLst, origCV := dgemmStats("nekbone")
	optLst, optCV := dgemmStats("nekbone-opt")
	fmt.Printf("  original:  TOT_LST_INS mean %.3g, TOT_CYC coefficient of variation %.1f%%\n", origLst, 100*origCV)
	fmt.Printf("  optimized: TOT_LST_INS mean %.3g (%.1f%% fewer), TOT_CYC CV %.1f%%\n",
		optLst, 100*(1-optLst/origLst), 100*optCV)
}
