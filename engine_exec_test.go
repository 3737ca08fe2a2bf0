package scalana_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	_ "scalana/internal/commmatrix" // registers the "commmatrix" tool
	"scalana/internal/prof"

	scalana "scalana"
)

// TestEngineConcurrentRuns hammers one Engine from concurrent goroutines
// running the same app. Under -race this exercises the compile cache
// plus the graph's single-flight bytecode compilation
// (psg.Graph.CompileExec) when the first executions race each other, and
// it asserts every goroutine produces byte-identical encoded profiles.
func TestEngineConcurrentRuns(t *testing.T) {
	app := scalana.GetApp("cg")
	cfg := prof.DefaultConfig()
	e := scalana.NewEngine()

	const workers = 8
	encodings := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := e.Run(scalana.RunConfig{App: app, NP: 16, ToolName: "scalana", Prof: cfg})
			if err != nil {
				errs[w] = err
				return
			}
			ps := &prof.ProfileSet{App: app.Name, NP: 16, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
			encodings[w], errs[w] = ps.Encode()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if !bytes.Equal(encodings[0], encodings[w]) {
			t.Fatalf("worker %d profiles diverge from worker 0", w)
		}
	}
	if stats := e.CacheStats(); stats.Misses != 1 {
		t.Errorf("compiled %d times, want 1", stats.Misses)
	}
}

// TestEngineRejectsNonPositiveNP covers apps built directly by a library
// caller, whose MinNP is the zero value: NP < 1 must be an error from
// every run path — bare, under each registered tool, and inside a sweep,
// where a panic would fire on a worker goroutine and kill the process.
func TestEngineRejectsNonPositiveNP(t *testing.T) {
	app := &scalana.App{Name: "np-check", File: "np.mp", Source: "func main() { mpi_barrier(); }"}
	e := scalana.NewEngine()
	for _, np := range []int{0, -1} {
		for _, tool := range append([]string{""}, scalana.Tools()...) {
			_, err := e.Run(scalana.RunConfig{App: app, NP: np, ToolName: tool})
			if err == nil || !strings.Contains(err.Error(), "rank") {
				t.Errorf("np=%d tool=%q: err = %v, want a rank-count error", np, tool, err)
			}
		}
		if _, err := e.Sweep(app, []int{2, np}, scalana.SweepConfig{}); err == nil {
			t.Errorf("sweep with np=%d: want an error", np)
		}
	}
	if _, err := e.Run(scalana.RunConfig{App: app, NP: 1}); err != nil {
		t.Errorf("np=1: %v", err)
	}
}
