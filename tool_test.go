package scalana_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalana/internal/prof"
	"scalana/internal/psg"

	scalana "scalana"

	// Registers the comm-matrix collector purely through the public
	// registry — the listing test below proves it arrived.
	_ "scalana/internal/commmatrix"
)

// stubTool is a minimal MeasurementTool for registry-behavior tests.
type stubTool struct{ name string }

func (s stubTool) Name() string        { return s.name }
func (s stubTool) Description() string { return "stub" }
func (s stubTool) NewRun(scalana.ToolContext) (scalana.ToolRun, error) {
	return nil, nil
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegisterToolRejectsDuplicatesAndEmptyNames(t *testing.T) {
	scalana.RegisterTool(stubTool{name: "stub-dup-test"})
	mustPanic(t, "duplicate registration", func() {
		scalana.RegisterTool(stubTool{name: "stub-dup-test"})
	})
	mustPanic(t, "empty name", func() {
		scalana.RegisterTool(stubTool{name: ""})
	})
	mustPanic(t, "nil tool", func() {
		scalana.RegisterTool(nil)
	})
}

func TestToolsListingAndLookup(t *testing.T) {
	names := scalana.Tools()
	for _, want := range []string{"scalana", "tracer", "hpctk", "commmatrix"} {
		tool, ok := scalana.LookupTool(want)
		if !ok {
			t.Errorf("tool %q not registered (have %v)", want, names)
			continue
		}
		if tool.Name() != want || tool.Description() == "" {
			t.Errorf("tool %q: name=%q description=%q", want, tool.Name(), tool.Description())
		}
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Tools() = %v is missing %q", names, want)
		}
	}
	if _, ok := scalana.LookupTool("no-such-tool"); ok {
		t.Error("unknown name should not resolve")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Tools() not sorted: %v", names)
		}
	}
}

func TestRunUnknownToolNameErrors(t *testing.T) {
	_, err := scalana.NewEngine().Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 4, ToolName: "no-such-tool"})
	if err == nil || !strings.Contains(err.Error(), "no-such-tool") {
		t.Errorf("unknown tool name should error naming the tool, got: %v", err)
	}
}

// TestRunNilToolRunErrors: a registered tool whose NewRun returns
// (nil, nil) — an easy implementer mistake — must surface as an error,
// not a panic inside Run.
func TestRunNilToolRunErrors(t *testing.T) {
	scalana.RegisterTool(stubTool{name: "stub-nil-run"})
	_, err := scalana.NewEngine().Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 4, ToolName: "stub-nil-run"})
	if err == nil || !strings.Contains(err.Error(), "returned no run") {
		t.Errorf("nil ToolRun should error, got: %v", err)
	}
}

// TestToolEnumResolvesToRegisteredNames pins the legacy enum's sugar
// mapping onto the registry, and that every resolved name is actually
// registered.
func TestToolEnumResolvesToRegisteredNames(t *testing.T) {
	for tool, want := range map[scalana.Tool]string{
		scalana.ToolNone:     "",
		scalana.ToolScalAna:  "scalana",
		scalana.ToolTracer:   "tracer",
		scalana.ToolCallPath: "hpctk",
		scalana.Tool(99):     "",
	} {
		if got := tool.ToolName(); got != want {
			t.Errorf("Tool(%d).ToolName() = %q, want %q", int(tool), got, want)
		}
		if want != "" {
			if _, ok := scalana.LookupTool(want); !ok {
				t.Errorf("enum resolves to %q but nothing is registered under it", want)
			}
		}
	}
	if _, err := scalana.NewEngine().Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 4, Tool: scalana.Tool(99)}); err == nil {
		t.Error("out-of-range enum value should error rather than run bare")
	}
}

// TestEnumAndNameRunsIdentical proves the enum really is sugar: for each
// legacy tool, a run selected by enum and a run selected by registered
// name produce identical results — same virtual makespan, same storage,
// and (for the profiler) byte-identical wire JSON.
func TestEnumAndNameRunsIdentical(t *testing.T) {
	app := scalana.GetApp("cg")
	for _, tc := range []struct {
		enum scalana.Tool
		name string
	}{
		{scalana.ToolScalAna, "scalana"},
		{scalana.ToolTracer, "tracer"},
		{scalana.ToolCallPath, "hpctk"},
	} {
		byEnum, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 8, Tool: tc.enum, Seed: 3})
		if err != nil {
			t.Fatalf("%s via enum: %v", tc.name, err)
		}
		byName, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 8, ToolName: tc.name, Seed: 3})
		if err != nil {
			t.Fatalf("%s via name: %v", tc.name, err)
		}
		if byEnum.Tool != tc.name || byName.Tool != tc.name {
			t.Errorf("%s: resolved tool names %q / %q", tc.name, byEnum.Tool, byName.Tool)
		}
		if byEnum.Result.Elapsed != byName.Result.Elapsed {
			t.Errorf("%s: elapsed differs: %g vs %g", tc.name, byEnum.Result.Elapsed, byName.Result.Elapsed)
		}
		if byEnum.StorageBytes() != byName.StorageBytes() {
			t.Errorf("%s: storage differs: %d vs %d", tc.name, byEnum.StorageBytes(), byName.StorageBytes())
		}
		if byEnum.Measurement.ToolName() != byName.Measurement.ToolName() {
			t.Errorf("%s: measurement tool names differ", tc.name)
		}
		if tc.name == "scalana" {
			a, b := saveWire(t, byEnum), saveWire(t, byName)
			if a != b {
				t.Errorf("%s: wire JSON differs between enum and name selection", tc.name)
			}
		}
	}
}

func saveWire(t *testing.T, out *scalana.RunOutput) string {
	t.Helper()
	ps := &prof.ProfileSet{App: out.App.Name, NP: out.NP, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
	path := filepath.Join(t.TempDir(), "wire.json")
	if err := ps.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunWireJSONMatchesCommittedFixtures is the redesign's byte-identity
// anchor: a live registry-dispatched run at the fixtures' settings (1 kHz,
// seed 0) must serialize to exactly the bytes the pre-registry build
// committed under testdata/.
func TestRunWireJSONMatchesCommittedFixtures(t *testing.T) {
	app := scalana.GetApp("cg")
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 1000
	for _, np := range []int{4, 8} {
		out, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: cfg})
		if err != nil {
			t.Fatal(err)
		}
		got := saveWire(t, out)
		want, err := os.ReadFile(filepath.Join("testdata", fixtureName("cg", np)))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("np=%d: live run wire JSON diverged from the pre-registry fixture (%d vs %d bytes)",
				np, len(got), len(want))
		}
	}
}

// TestMeasurementAccessorsNilSafe: a bare run carries no Measurement and
// every accessor must degrade to zero values.
func TestMeasurementAccessorsNilSafe(t *testing.T) {
	out, err := scalana.NewEngine().Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Measurement != nil || out.Tool != "" {
		t.Fatalf("bare run should carry no measurement, got tool %q", out.Tool)
	}
	if out.Profiles() != nil || out.Traces() != nil || out.CtxProfiles() != nil ||
		out.PPG() != nil || out.StorageBytes() != 0 {
		t.Error("nil-Measurement accessors should return zero values")
	}
	if out.Measurement.Data() != nil || out.Measurement.ToolName() != "" {
		t.Error("nil *Measurement methods should be callable")
	}
}

// TestPSGOptionsNormalizeSharedAcrossSpellings covers the old
// resolvePSGOptions hole: Options{Contract: true, MaxLoopDepth: 0} must
// mean paper defaults everywhere — same compiled graph, same engine
// cache entry as DefaultOptions().
func TestPSGOptionsNormalizeSharedAcrossSpellings(t *testing.T) {
	e := scalana.NewEngine()
	app := scalana.GetApp("cg")
	_, g1, err := e.Compile(app, psg.Options{Contract: true})
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := e.Compile(app, psg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, g3, err := e.Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || g2 != g3 {
		t.Error("spellings of the default options should share one compiled graph")
	}
	stats := e.CacheStats()
	if stats.Entries != 1 || stats.Misses != 1 || stats.Hits != 2 {
		t.Errorf("cache entries=%d misses=%d hits=%d, want 1/1/2", stats.Entries, stats.Misses, stats.Hits)
	}

	out, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 4, PSGOptions: psg.Options{Contract: true}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Graph.Opts != psg.DefaultOptions() {
		t.Errorf("Run left options un-normalized: %+v", out.Graph.Opts)
	}
}
