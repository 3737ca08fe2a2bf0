package scalana

import (
	"strings"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/psg"
)

// zeusmpSweep runs the zeusmp {8,16,32} sweep on a fresh engine with the
// given parallelism and returns the detection report plus the engine.
func zeusmpSweep(t *testing.T, parallelism int, seed int64) (*detect.Report, *Engine) {
	t.Helper()
	e := NewEngine()
	runs, err := e.Sweep(GetApp("zeusmp"), []int{8, 16, 32}, SweepConfig{
		Parallelism: parallelism,
		Prof:        sweepCfg(),
		Seed:        seed,
	})
	if err != nil {
		t.Fatalf("sweep (parallelism=%d): %v", parallelism, err)
	}
	rep, err := DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	return rep, e
}

// TestSweepParallelMatchesSerial is the sweep engine's determinism
// contract: a parallel sweep and a serial sweep with equal seeds must
// produce byte-identical detection reports.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serial, _ := zeusmpSweep(t, 1, 42)
	parallel, _ := zeusmpSweep(t, 4, 42)

	prog, err := GetApp("zeusmp").Parse()
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Render(prog), parallel.Render(prog)
	if a != b {
		t.Errorf("parallel report differs from serial report:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if len(serial.NonScalable) == 0 || len(serial.Paths) == 0 {
		t.Errorf("degenerate report: %d non-scalable, %d paths", len(serial.NonScalable), len(serial.Paths))
	}
}

// TestSweepCompilesOncePerApp asserts the compile cache works: a
// three-scale sweep must parse and contract the app exactly once.
func TestSweepCompilesOncePerApp(t *testing.T) {
	_, e := zeusmpSweep(t, 4, 0)
	stats := e.CacheStats()
	if stats.Misses != 1 {
		t.Errorf("sweep compiled %d times, want 1", stats.Misses)
	}
	if stats.Hits != 2 {
		t.Errorf("cache hits = %d, want 2", stats.Hits)
	}
	if stats.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", stats.Entries)
	}

	// A second sweep on the same engine reuses the entry entirely.
	if _, err := e.Sweep(GetApp("zeusmp"), []int{8, 16}, SweepConfig{Prof: sweepCfg()}); err != nil {
		t.Fatal(err)
	}
	stats = e.CacheStats()
	if stats.Misses != 1 || stats.Hits != 4 {
		t.Errorf("after second sweep: misses=%d hits=%d, want 1/4", stats.Misses, stats.Hits)
	}

	// Different PSG options are a different compilation.
	if _, _, err := e.Compile(GetApp("zeusmp"), psg.Options{MaxLoopDepth: 10, Contract: false}); err != nil {
		t.Fatal(err)
	}
	if stats := e.CacheStats(); stats.Misses != 2 || stats.Entries != 2 {
		t.Errorf("distinct options should miss: misses=%d entries=%d", stats.Misses, stats.Entries)
	}
}

// TestEngineRunSharesGraphAcrossRuns verifies that engine runs at
// different scales reuse one compiled graph and still match the
// fresh-compile path exactly.
func TestEngineRunSharesGraphAcrossRuns(t *testing.T) {
	e := NewEngine()
	a, err := e.Run(RunConfig{App: GetApp("cg"), NP: 8, Tool: ToolScalAna})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(RunConfig{App: GetApp("cg"), NP: 16, Tool: ToolScalAna})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph != b.Graph {
		t.Error("engine runs of one app should share the compiled graph")
	}
	fresh, err := NewEngine().Run(RunConfig{App: GetApp("cg"), NP: 16, Tool: ToolScalAna})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Result.Elapsed != b.Result.Elapsed || fresh.StorageBytes() != b.StorageBytes() {
		t.Errorf("shared-graph run differs from fresh-compile run: elapsed %g vs %g, storage %d vs %d",
			b.Result.Elapsed, fresh.Result.Elapsed, b.StorageBytes(), fresh.StorageBytes())
	}
}

// TestSweepSharedGraphIndirectCalls stresses the historically hazardous
// part of graph sharing: concurrent worlds executing indirect calls
// against the same cached PSG. The kernel bodies deliberately contain
// contractible structure (consecutive statements that merge into one
// Comp vertex, an MPI-free branch) — before targets were
// pre-materialized at compile time, runtime materialization of such a
// subtree rewrote every instance's node attribution while other scales
// were reading it. Both targets must be attributed at every scale and
// the sweep must be deterministic.
func TestSweepSharedGraphIndirectCalls(t *testing.T) {
	app := &App{
		Name: "indirect-sweep", File: "ind.mp", MinNP: 1,
		Source: `
func lightKernel(w) {
	var a = w / 2;
	var b = a + 1;
	if (b > 0) {
		b = b - 1;
	}
	for (var i = 0; i < 2; i = i + 1) { compute(b, w / 20, w / 40, 4096); }
}
func heavyKernel(w) {
	var c = w * 1;
	var d = c + 0;
	for (var i = 0; i < 8; i = i + 1) { compute(d, w / 10, w / 20, 65536); }
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
	sweepOnce := func(parallelism int) []detect.ScaleRun {
		runs, err := NewEngine().Sweep(app, []int{2, 4, 8}, SweepConfig{
			Parallelism: parallelism,
			Prof:        sweepCfg(),
		})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return runs
	}
	serial, parallel := sweepOnce(1), sweepOnce(3)
	for i := range serial {
		if len(serial[i].PPG.PresentVIDs()) != len(parallel[i].PPG.PresentVIDs()) {
			t.Errorf("np=%d: PPG vertex counts differ: %d vs %d",
				serial[i].NP, len(serial[i].PPG.PresentVIDs()), len(parallel[i].PPG.PresentVIDs()))
		}
	}
	for _, run := range parallel {
		light, heavy := false, false
		keys := run.PPG.PSG.Keys()
		for _, vid := range run.PPG.PresentVIDs() {
			if strings.Contains(keys[vid], "@lightKernel") {
				light = true
			}
			if strings.Contains(keys[vid], "@heavyKernel") {
				heavy = true
			}
		}
		if run.NP > 1 && (!light || !heavy) {
			t.Errorf("np=%d: indirect targets missing from shared graph (light=%v heavy=%v)", run.NP, light, heavy)
		}
	}
}

// TestSweepDeepIndirectChain covers nested indirect calls — an indirect
// target that itself makes an indirect call, four levels deep, with
// contractible structure in the leaf. Pre-materialization must cover
// the whole chain (a depth cutoff here once re-opened a data race on
// the shared graph), so a parallel shared-graph sweep must attribute
// the leaf at every scale.
func TestSweepDeepIndirectChain(t *testing.T) {
	app := &App{
		Name: "indirect-deep", File: "deep.mp", MinNP: 1,
		Source: `
func leaf(w) {
	var a = w + 1;
	var b = a * 2;
	compute(b, w / 10, w / 20, 4096);
}
func l3(w) {
	var f = &leaf;
	f(w);
}
func l2(w) {
	var f = &l3;
	f(w);
}
func l1(w) {
	var f = &l2;
	f(w);
}
func main() {
	var k = &l1;
	k(1e6);
	mpi_barrier();
}`,
	}
	runs, err := NewEngine().Sweep(app, []int{2, 4, 8}, SweepConfig{
		Parallelism: 3,
		Prof:        sweepCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		found := false
		keys := run.PPG.PSG.Keys()
		for _, vid := range run.PPG.PresentVIDs() {
			if strings.Contains(keys[vid], "@leaf") {
				found = true
			}
		}
		if !found {
			t.Errorf("np=%d: leaf of the 4-deep indirect chain not attributed", run.NP)
		}
	}
}

func TestSweepEmptyScales(t *testing.T) {
	runs, err := NewEngine().Sweep(GetApp("cg"), nil, SweepConfig{})
	if err != nil || runs != nil {
		t.Errorf("empty sweep = (%v, %v), want (nil, nil)", runs, err)
	}
}
