package scalana

import (
	"strings"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/psg"
)

func TestRunConfigValidation(t *testing.T) {
	if _, err := NewEngine().Run(RunConfig{}); err == nil {
		t.Error("nil app should error")
	}
	if _, err := NewEngine().Run(RunConfig{App: GetApp("zeusmp"), NP: 2}); err == nil {
		t.Error("np below MinNP should error")
	}
}

func TestGetAppAndNames(t *testing.T) {
	if GetApp("nope") != nil {
		t.Error("unknown app should be nil")
	}
	names := AppNames()
	if len(names) < 16 {
		t.Errorf("only %d apps registered", len(names))
	}
	if len(EvaluationNames()) != 11 {
		t.Errorf("evaluation names = %v", EvaluationNames())
	}
}

func TestToolString(t *testing.T) {
	for tool, want := range map[Tool]string{
		ToolNone:     "none",
		ToolScalAna:  "ScalAna",
		ToolTracer:   "Scalasca-like tracer",
		ToolCallPath: "HPCToolkit-like profiler",
		Tool(99):     "unknown",
	} {
		if tool.String() != want {
			t.Errorf("%d.String() = %q, want %q", tool, tool.String(), want)
		}
	}
}

func TestCompileOptionsRespected(t *testing.T) {
	app := GetApp("cg")
	_, contracted, err := CompileOptions(app, psg.Options{MaxLoopDepth: 10, Contract: true})
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := CompileOptions(app, psg.Options{MaxLoopDepth: 10, Contract: false})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.VerticesAfter <= contracted.Stats.VerticesAfter {
		t.Errorf("uncontracted %d <= contracted %d", full.Stats.VerticesAfter, contracted.Stats.VerticesAfter)
	}
}

func TestRunProducesToolOutputs(t *testing.T) {
	app := GetApp("cg")
	for _, tc := range []struct {
		tool Tool
		has  func(*RunOutput) bool
	}{
		{ToolNone, func(o *RunOutput) bool {
			return o.Profiles() == nil && o.Traces() == nil && o.CtxProfiles() == nil && o.StorageBytes() == 0
		}},
		{ToolScalAna, func(o *RunOutput) bool { return len(o.Profiles()) == 8 && o.PPG() != nil && o.StorageBytes() > 0 }},
		{ToolTracer, func(o *RunOutput) bool { return len(o.Traces()) == 8 && o.StorageBytes() > 0 }},
		{ToolCallPath, func(o *RunOutput) bool { return len(o.CtxProfiles()) == 8 && o.StorageBytes() > 0 }},
	} {
		out, err := NewEngine().Run(RunConfig{App: app, NP: 8, Tool: tc.tool})
		if err != nil {
			t.Fatalf("%v: %v", tc.tool, err)
		}
		if !tc.has(out) {
			t.Errorf("%v: outputs missing or unexpected: %+v", tc.tool, out)
		}
	}
}

func TestRunsAreReproducibleWithSeed(t *testing.T) {
	app := GetApp("mg")
	a, err := NewEngine().Run(RunConfig{App: app, NP: 8, Tool: ToolScalAna, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Run(RunConfig{App: app, NP: 8, Tool: ToolScalAna, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Elapsed != b.Result.Elapsed {
		t.Errorf("elapsed differs: %g vs %g", a.Result.Elapsed, b.Result.Elapsed)
	}
	if a.StorageBytes() != b.StorageBytes() {
		t.Errorf("storage differs: %d vs %d", a.StorageBytes(), b.StorageBytes())
	}
}

// TestSweepAndDetectSmoke covers the facade path end to end on a tiny app.
func TestSweepAndDetectSmoke(t *testing.T) {
	runs, err := NewEngine().Sweep(GetApp("is"), []int{4, 8}, SweepConfig{Prof: sweepCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].NP != 4 || runs[1].NP != 8 {
		t.Fatalf("runs = %+v", runs)
	}
	rep, err := DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NP != 8 {
		t.Errorf("report NP = %d", rep.NP)
	}
}

// TestIndirectCallProfiledEndToEnd: an app using function pointers runs
// under the ScalAna profiler; the PSG is refined at run time and the
// callee's work is attributed to the materialized vertices.
func TestIndirectCallProfiledEndToEnd(t *testing.T) {
	app := &App{
		Name: "indirect-e2e", File: "ind.mp", MinNP: 1,
		Source: `
func lightKernel(w) {
	for (var i = 0; i < 2; i = i + 1) { compute(w / 2, w / 20, w / 40, 4096); }
}
func heavyKernel(w) {
	for (var i = 0; i < 8; i = i + 1) { compute(w, w / 10, w / 20, 65536); }
}
func main() {
	var k = &lightKernel;
	if (mpi_rank() % 2 == 1) {
		k = &heavyKernel;
	}
	k(1e7);
	mpi_barrier();
}`,
	}
	out, err := NewEngine().Run(RunConfig{App: app, NP: 4, Tool: ToolScalAna})
	if err != nil {
		t.Fatal(err)
	}
	// Both targets observed at run time.
	targets := map[string]bool{}
	for _, rp := range out.Profiles() {
		for _, rec := range rp.Indirect {
			targets[rec.Target] = true
		}
	}
	if !targets["lightKernel"] || !targets["heavyKernel"] {
		t.Errorf("indirect targets observed = %v", targets)
	}
	// The refined PSG contains vertices for both kernels, with samples on
	// the heavy one.
	heavyTime := 0.0
	keys := out.PPG().PSG.Keys()
	for _, vid := range out.PPG().PresentVIDs() {
		if strings.Contains(keys[vid], "@heavyKernel") {
			for _, tm := range out.PPG().TimeSeries(vid) {
				heavyTime += tm
			}
		}
	}
	if heavyTime <= 0 {
		t.Error("no time attributed to the runtime-materialized heavyKernel vertices")
	}
}
