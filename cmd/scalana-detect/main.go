// Command scalana-detect is step 3 of the ScalAna workflow (paper §V): it
// profiles an application across job scales, assembles Program Performance
// Graphs, detects problematic vertices, and runs backtracking root cause
// detection.
//
// Usage:
//
//	scalana-detect -app zeusmp -scales 8,16,32,64
//	scalana-detect -app zeusmp -scales 8,16,32,64 -parallel 4
//	scalana-detect -app cg -scales 4,8,16 -abnorm-thd 1.5 -profiles dir/
//	scalana-detect -app zeusmp -scales 8,16,32 -expect-cause bval3d
//	scalana-detect -app cg -scales 4,8,16 -json report.json
//	scalana-detect -app cg -scales 4,8 -store /var/lib/scalana
//	scalana-detect -app cg -store /var/lib/scalana -watch
//
// With -expect-cause, the command exits non-zero unless some reported
// root cause matches the substring (vertex key, name, or file:line) —
// and, in particular, whenever the report contains no causes at all —
// so CI gates and scripts can assert detection results directly.
//
// The app is compiled once for the whole sweep and the scales execute
// concurrently on -parallel workers (0 = one per CPU, 1 = one scale at
// a time; each scale's own rank simulation and finalization still use
// goroutines). The report is identical regardless of parallelism.
//
// With -profiles, previously saved scalana-prof outputs named
// <app>.<np>.json are loaded from the directory instead of re-running.
// With -store, profile sets come from a scalana-serve content-addressed
// store instead; each requested scale must resolve to exactly one
// stored set.
//
// With -watch (requires -store), the command switches to streaming
// regression mode: the newest stored run at -np (default: the largest
// stored scale) is scored against the rolling per-vertex baseline built
// from every earlier run, exactly as scalana-serve's GET /v1/watch —
// with -json '-', the bytes are identical to the served response.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scalana/internal/baseline"
	"scalana/internal/detect"
	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/scales"
	"scalana/internal/store"

	scalana "scalana"
)

func main() {
	appName := flag.String("app", "", "workload name")
	scaleList := flag.String("scales", "4,8,16,32", "comma-separated rank counts")
	hz := flag.Float64("hz", 1000, "sampling frequency for profiling runs")
	abnormThd := flag.Float64("abnorm-thd", 1.3, "AbnormThd detection parameter")
	topK := flag.Int("topk", 10, "maximum non-scalable vertices reported")
	profilesDir := flag.String("profiles", "", "directory of saved scalana-prof outputs")
	storeDir := flag.String("store", "", "scalana-serve profile store to load sets from")
	parallel := flag.Int("parallel", 0, "scales profiled concurrently (0 = one per CPU, 1 = one scale at a time)")
	expectCause := flag.String("expect-cause", "", "exit non-zero unless a reported root cause matches this substring")
	commCauses := flag.Bool("comm-causes", false, "admit non-scalable collectives as root-cause candidates (detect.Config.CommCauses)")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file ('-' for stdout)")
	watch := flag.Bool("watch", false, "streaming regression mode: score the newest stored run against the rolling baseline (requires -store)")
	watchNP := flag.Int("np", 0, "scale to watch (0 = largest stored scale; -watch only)")
	watchZ := flag.Float64("z", 3, "z-score flagging threshold (-watch only)")
	watchCUSUM := flag.Float64("cusum", 5, "CUSUM flagging threshold (-watch only)")
	watchK := flag.Float64("cusum-k", 0.5, "CUSUM slack per run (-watch only)")
	watchMinRuns := flag.Int("min-runs", 2, "minimum baseline runs before a vertex is scored (-watch only)")
	watchMinShare := flag.Float64("min-share", 0.01, "minimum share of total time for flagging (-watch only)")
	watchMerge := flag.String("merge", "median", "cross-rank merge strategy for baselines (-watch only)")
	flag.Parse()

	app := scalana.GetApp(*appName)
	if app == nil {
		fatalf("unknown app %q", *appName)
	}
	if *watch {
		p := baseline.Params{
			ZThd: *watchZ, CUSUMThd: *watchCUSUM, CUSUMK: *watchK,
			MinRuns: *watchMinRuns, MinShare: *watchMinShare,
		}
		runWatch(app, *storeDir, *watchNP, p, *watchMerge, *jsonOut)
		return
	}
	all, err := scales.Parse(*scaleList)
	if err != nil {
		fatalf("-scales: %v", err)
	}
	nps, dropped := scales.SplitMin(all, app.MinNP)
	if len(dropped) > 0 {
		fmt.Fprintf(os.Stderr, "scalana-detect: dropping scales %v: %s requires at least %d ranks\n",
			dropped, app.Name, app.MinNP)
	}
	if len(nps) == 0 {
		fatalf("no usable scales: all of %v are below the %d-rank minimum of %s", dropped, app.MinNP, app.Name)
	}
	if *profilesDir != "" && *storeDir != "" {
		fatalf("-profiles and -store are mutually exclusive")
	}

	var runs []detect.ScaleRun
	switch {
	case *storeDir != "":
		st, err := store.Open(*storeDir)
		if err != nil {
			fatalf("%v", err)
		}
		_, graph, err := scalana.Compile(app)
		if err != nil {
			fatalf("%v", err)
		}
		for _, np := range nps {
			entry, err := st.Only(app.Name, np)
			if err != nil {
				fatalf("%v", err)
			}
			data, err := st.Get(entry.Key)
			if err != nil {
				fatalf("%v", err)
			}
			ps, err := prof.DecodeProfileSet(data, graph)
			if err != nil {
				fatalf("decode %s: %v", entry.Key, err)
			}
			pg, err := ppg.Build(graph, ps.Profiles)
			if err != nil {
				fatalf("assemble PPG from %s: %v", entry.Key, err)
			}
			runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
		}
	case *profilesDir != "":
		_, graph, err := scalana.Compile(app)
		if err != nil {
			fatalf("%v", err)
		}
		for _, np := range nps {
			path := filepath.Join(*profilesDir, fmt.Sprintf("%s.%d.json", app.Name, np))
			ps, err := prof.LoadProfileSet(path, graph)
			if err != nil {
				fatalf("load %s: %v", path, err)
			}
			pg, err := ppg.Build(graph, ps.Profiles)
			if err != nil {
				fatalf("assemble PPG from %s: %v", path, err)
			}
			runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
		}
	default:
		cfg := prof.DefaultConfig()
		cfg.SampleHz = *hz
		var err error
		runs, err = scalana.NewEngine().Sweep(app, nps, scalana.SweepConfig{
			Parallelism: *parallel,
			Prof:        cfg,
		})
		if err != nil {
			fatalf("%v", err)
		}
	}

	dcfg := detect.DefaultConfig()
	dcfg.AbnormThd = *abnormThd
	dcfg.TopK = *topK
	dcfg.CommCauses = *commCauses
	rep, err := scalana.DetectScalingLoss(runs, dcfg)
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := app.Parse()
	if err != nil {
		prog = nil
	}
	// With -json '-' stdout must stay parseable JSON; the rendered text
	// report moves to stderr.
	rendered := os.Stdout
	if *jsonOut == "-" {
		rendered = os.Stderr
	}
	fmt.Fprint(rendered, rep.Render(prog))

	if *jsonOut != "" {
		data, err := rep.EncodeJSON()
		if err != nil {
			fatalf("encode report: %v", err)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatalf("write report: %v", err)
		}
	}

	if *expectCause != "" {
		if len(rep.Causes) == 0 {
			fatalf("expectation %q not met: the report contains no root causes at all", *expectCause)
		}
		if !causeMatches(rep, *expectCause) {
			fatalf("expectation %q not met: none of the %d reported causes match (top cause: %s)",
				*expectCause, len(rep.Causes), describeCause(&rep.Causes[0]))
		}
		fmt.Fprintf(os.Stderr, "scalana-detect: expectation %q met\n", *expectCause)
	}
}

// runWatch is the -watch mode: load the store's full run history into a
// rolling-baseline state and score the newest run at one scale. The
// JSON bytes written with -json are exactly what GET /v1/watch serves
// for the same store and thresholds.
func runWatch(app *scalana.App, storeDir string, np int, p baseline.Params, mergeName, jsonOut string) {
	if storeDir == "" {
		fatalf("-watch requires -store")
	}
	merge, err := fit.ParseMergeStrategy(mergeName)
	if err != nil {
		fatalf("-merge: %v", err)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		fatalf("%v", err)
	}
	_, graph, err := scalana.Compile(app)
	if err != nil {
		fatalf("%v", err)
	}
	state, err := baseline.LoadStore(st, app.Name, graph, merge)
	if err != nil {
		fatalf("%v", err)
	}
	nps := state.NPs()
	if len(nps) == 0 {
		fatalf("no profile sets stored for app %q in %s", app.Name, storeDir)
	}
	if np == 0 {
		np = nps[len(nps)-1]
	}
	rep, err := state.Watch(np, p)
	if err != nil {
		fatalf("%v", err)
	}
	rendered := os.Stdout
	if jsonOut == "-" {
		rendered = os.Stderr
	}
	fmt.Fprint(rendered, rep.Render())
	if jsonOut != "" {
		data, err := rep.EncodeJSON()
		if err != nil {
			fatalf("encode report: %v", err)
		}
		if jsonOut == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			fatalf("write report: %v", err)
		}
	}
	if !rep.Quiet() {
		os.Exit(2) // regressions found: distinct from usage/runtime failures (1)
	}
}

// causeMatches reports whether any reported root cause matches the
// substring by vertex key, vertex name, or source position.
func causeMatches(rep *detect.Report, substr string) bool {
	for i := range rep.Causes {
		if strings.Contains(describeCause(&rep.Causes[i]), substr) {
			return true
		}
	}
	return false
}

func describeCause(c *detect.Cause) string {
	if c.Vertex == nil {
		return c.VertexKey
	}
	return fmt.Sprintf("%s %s %s at %s:%d", c.VertexKey, c.Vertex.Kind, c.Vertex.Name, c.Vertex.Pos.File, c.Vertex.Pos.Line)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalana-detect: "+format+"\n", args...)
	os.Exit(1)
}
