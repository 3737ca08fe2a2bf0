package ppg_test

import (
	"runtime"
	"testing"

	scalana "scalana"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// zeusmpSet profiles zeusmp at one scale and decodes the set back from
// the wire, the way the service holds a stored run.
func zeusmpSet(tb testing.TB, np int) (*psg.Graph, []*prof.RankProfile) {
	tb.Helper()
	eng := scalana.NewEngine()
	app := scalana.GetApp("zeusmp")
	out, err := eng.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: prof.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Measurement.Profiles()})
	if err != nil {
		tb.Fatal(err)
	}
	_, g, err := eng.Compile(app, psg.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := prof.DecodeProfileSet(data, g)
	if err != nil {
		tb.Fatal(err)
	}
	return g, ps.Profiles
}

// retainedBytes is the live-heap growth per graph of holding several
// built graphs at once, so allocator rounding averages out.
func retainedBytes(tb testing.TB, g *psg.Graph, profiles []*prof.RankProfile) (int64, *ppg.Graph) {
	tb.Helper()
	const n = 8
	held := make([]*ppg.Graph, n)
	var before, after runtime.MemStats
	// Two collections, so objects awaiting finalization are gone too.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		pg, err := ppg.Build(g, profiles)
		if err != nil {
			tb.Fatal(err)
		}
		held[i] = pg
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	runtime.KeepAlive(profiles) // else freed by the second collection
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n, held[0]
}

// TestGraphBytesMatchesHeap holds Graph.Bytes, the figure the service's
// run cache charges, to within 25% of the heap a built graph retains.
func TestGraphBytesMatchesHeap(t *testing.T) {
	for _, np := range []int{64, 256} {
		g, profiles := zeusmpSet(t, np)
		got, pg := retainedBytes(t, g, profiles)
		est := pg.Bytes()
		t.Logf("np=%d: retained %d B, Bytes() %d B", np, got, est)
		if lo, hi := float64(got)*0.75, float64(got)*1.25; float64(est) < lo || float64(est) > hi {
			t.Errorf("np=%d: Bytes() = %d, want within 25%% of the retained %d", np, est, got)
		}
	}
}

// TestBuildRetainedBytes is the compact-layout memory gate: a zeusmp
// np=256 graph, whose performance block used to hold a row for each of
// the 31 VIDs although only 5 are ever sampled, retained 661,744 bytes
// with the dense layout. Storing only present rows must at least halve
// that.
func TestBuildRetainedBytes(t *testing.T) {
	const dense = 661744
	g, profiles := zeusmpSet(t, 256)
	got, _ := retainedBytes(t, g, profiles)
	t.Logf("zeusmp np=256 graph retains %d B (dense layout: %d B)", got, dense)
	if got > dense/2 {
		t.Errorf("ppg.Build retains %d B at np=256; want at most %d (half the dense layout)", got, dense/2)
	}
}
