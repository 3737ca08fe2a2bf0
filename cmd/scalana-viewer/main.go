// Command scalana-viewer is step 4 of the ScalAna workflow (paper §V): a
// terminal rendition of the GUI in paper Fig. 9. The upper panel lists the
// diagnosed root-cause vertices with their calling paths; the lower panel
// shows the source code around each root cause.
//
// Usage:
//
//	scalana-viewer -app zeusmp -scales 8,16,32,64
//	scalana-viewer -app sst -scales 4,8,16,32 -context 3
//	scalana-viewer -app cg -scales 4,8,16 -parallel 2
//
// The sweep runs through the standard engine: the app compiles once for
// every scale and the scales fan out across -parallel workers — the same
// knobs every other command exposes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/prof"
	"scalana/internal/scales"

	scalana "scalana"
)

func main() {
	appName := flag.String("app", "", "workload name")
	scaleList := flag.String("scales", "4,8,16,32", "comma-separated rank counts")
	context := flag.Int("context", 2, "source lines of context around each root cause")
	hz := flag.Float64("hz", 1000, "sampling frequency for profiling runs")
	parallel := flag.Int("parallel", 0, "scales profiled concurrently (0 = one per CPU, 1 = one scale at a time)")
	flag.Parse()

	app := scalana.GetApp(*appName)
	if app == nil {
		fatalf("unknown app %q", *appName)
	}
	all, err := scales.Parse(*scaleList)
	if err != nil {
		fatalf("-scales: %v", err)
	}
	nps, dropped := scales.SplitMin(all, app.MinNP)
	if len(dropped) > 0 {
		fmt.Fprintf(os.Stderr, "scalana-viewer: dropping scales %v: %s requires at least %d ranks\n",
			dropped, app.Name, app.MinNP)
	}
	if len(nps) == 0 {
		fatalf("no usable scales: all of %v are below the %d-rank minimum of %s", dropped, app.MinNP, app.Name)
	}
	cfg := prof.DefaultConfig()
	cfg.SampleHz = *hz
	runs, err := scalana.NewEngine().Sweep(app, nps, scalana.SweepConfig{
		Parallelism: *parallel,
		Prof:        cfg,
	})
	if err != nil {
		fatalf("%v", err)
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := app.Parse()
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("┌─ root cause vertices and calling paths ─ %s (np=%d) ─┐\n", app.Name, rep.NP)
	for i, c := range rep.Causes {
		var callPath []string
		for _, v := range c.Vertex.Path() {
			callPath = append(callPath, fmt.Sprintf("%s@%d", v.Kind, v.Pos.Line))
		}
		fmt.Printf("│ %d. %-6s %s:%d  score=%.3f  path: %s\n",
			i+1, c.Vertex.Kind, c.Vertex.Pos.File, c.Vertex.Pos.Line, c.Score, strings.Join(callPath, " > "))
	}
	fmt.Printf("└%s┘\n\n", strings.Repeat("─", 58))

	for i, c := range rep.Causes {
		fmt.Printf("── code for root cause %d (%s:%d) ──\n", i+1, c.Vertex.Pos.File, c.Vertex.Pos.Line)
		for l := c.Vertex.Pos.Line - *context; l <= c.Vertex.Pos.Line+*context; l++ {
			src := prog.SourceLine(l)
			if src == "" && l != c.Vertex.Pos.Line {
				continue
			}
			marker := "  "
			if l == c.Vertex.Pos.Line {
				marker = "=>"
			}
			fmt.Printf(" %s %4d  %s\n", marker, l, src)
		}
		fmt.Println()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalana-viewer: "+format+"\n", args...)
	os.Exit(1)
}
