// Package scalana is a Go reproduction of ScalAna (Jin et al., SC 2020):
// automated scaling-loss detection for message-passing programs with graph
// analysis at profiling-level overhead.
//
// The pipeline mirrors the paper's four user steps (§V):
//
//	prog, graph, _ := scalana.Compile(app)            // scalana-static
//	e := scalana.NewEngine()
//	out, _ := e.Run(scalana.RunConfig{...})           // scalana-prof
//	runs, _ := e.Sweep(app, []int{4,...,128}, scfg)   // one run per scale
//	report, _ := scalana.DetectScalingLoss(runs, cfg) // scalana-detect
//
// Compile builds the Program Structure Graph from MiniMP source with
// intra-/inter-procedural analysis and contraction. An Engine caches
// those compilations and executes the program as bytecode on the
// deterministic MPI simulator with the selected measurement tool attached
// (the ScalAna profiler, or the tracing/profiling baselines used for
// comparison). DetectScalingLoss assembles Program Performance Graphs,
// finds non-scalable and abnormal vertices, and runs backtracking
// root-cause detection.
package scalana

import (
	"fmt"
	"io"

	"scalana/internal/apps"
	"scalana/internal/detect"
	"scalana/internal/hpctk"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/par"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/trace"
	"scalana/internal/vm"
)

// Tool is legacy sugar for selecting a bundled measurement tool. The run
// API dispatches on registered tool names (RunConfig.ToolName,
// RegisterTool); the enum constants below resolve to those names via
// ToolName, so existing call sites keep working unchanged.
type Tool int

// Available tools.
const (
	// ToolNone runs the application bare (the overhead baseline).
	ToolNone Tool = iota
	// ToolScalAna attaches the graph-based profiler (paper's tool).
	ToolScalAna
	// ToolTracer attaches the Scalasca-like full tracer.
	ToolTracer
	// ToolCallPath attaches the HPCToolkit-like call-path profiler.
	ToolCallPath
)

func (t Tool) String() string {
	switch t {
	case ToolNone:
		return "none"
	case ToolScalAna:
		return "ScalAna"
	case ToolTracer:
		return "Scalasca-like tracer"
	case ToolCallPath:
		return "HPCToolkit-like profiler"
	}
	return "unknown"
}

// ToolName resolves the enum value to the registered tool name it is
// sugar for ("" for ToolNone and for values outside the enum).
func (t Tool) ToolName() string {
	switch t {
	case ToolScalAna:
		return "scalana"
	case ToolTracer:
		return "tracer"
	case ToolCallPath:
		return "hpctk"
	}
	return ""
}

// App re-exports the workload type.
type App = apps.App

// GetApp looks up a registered workload (NPB kernels, zeusmp, sst,
// nekbone, and their -opt variants).
func GetApp(name string) *App { return apps.Get(name) }

// AppNames lists all registered workloads.
func AppNames() []string { return apps.Names() }

// EvaluationNames lists the programs of the paper's evaluation in Table II
// order: the NPB suite plus SST, Nekbone, and Zeus-MP.
func EvaluationNames() []string { return apps.EvaluationNames() }

// Compile parses the app and builds its contracted PSG (the
// scalana-static step).
func Compile(app *App) (*minilang.Program, *psg.Graph, error) {
	return CompileOptions(app, psg.DefaultOptions())
}

// CompileOptions is Compile with explicit PSG options.
func CompileOptions(app *App, opts psg.Options) (*minilang.Program, *psg.Graph, error) {
	prog, err := app.Parse()
	if err != nil {
		return nil, nil, fmt.Errorf("scalana: parse %s: %w", app.Name, err)
	}
	graph, err := psg.Build(prog, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("scalana: build PSG for %s: %w", app.Name, err)
	}
	return prog, graph, nil
}

// RunConfig configures one profiled execution.
type RunConfig struct {
	App *App
	NP  int
	// ToolName selects a registered measurement tool by name (see
	// RegisterTool / Tools). Empty means no tool unless the legacy Tool
	// enum below selects one.
	ToolName string
	// Tool is the legacy enum selector, kept as sugar: it resolves to a
	// registered name via Tool.ToolName. ToolName wins when both are set.
	Tool Tool
	// Prof configures the ScalAna profiler (zero value = paper defaults).
	Prof prof.Config
	// Trace configures the tracer baseline (zero value = defaults).
	Trace trace.Config
	// CallPath configures the call-path profiler baseline.
	CallPath hpctk.Config
	// ToolOptions carries configuration for externally registered tools;
	// their NewRun type-asserts it (nil = tool defaults).
	ToolOptions any
	// Seed makes runs reproducible; runs with equal seeds are identical.
	Seed int64
	// Stdout receives application print() output (nil discards).
	Stdout io.Writer
	// PSGOptions overrides contraction settings (zero value = defaults).
	PSGOptions psg.Options
}

// resolveTool maps the config's tool selection to a registered name:
// ToolName wins, otherwise the legacy enum resolves through
// Tool.ToolName. Empty means a bare run.
func (cfg RunConfig) resolveTool() (string, error) {
	if cfg.ToolName != "" {
		return cfg.ToolName, nil
	}
	if cfg.Tool == ToolNone {
		return "", nil
	}
	name := cfg.Tool.ToolName()
	if name == "" {
		return "", fmt.Errorf("scalana: Tool(%d) is not a known tool enum value", int(cfg.Tool))
	}
	return name, nil
}

// RunOutput is the result of one execution.
type RunOutput struct {
	App *App
	NP  int
	// Tool is the resolved registered tool name ("" for a bare run).
	Tool   string
	Result mpisim.RunResult
	Graph  *psg.Graph
	// Measurement is the attached tool's collected result (nil for bare
	// runs). The typed accessors below forward to it, so pre-registry
	// callers migrate by adding parentheses.
	Measurement *Measurement
}

// Profiles returns the per-rank ScalAna profiles ("scalana" tool runs
// only). Compatibility accessor for Measurement.Profiles.
func (o *RunOutput) Profiles() []*prof.RankProfile { return o.Measurement.Profiles() }

// Traces returns the per-rank traces ("tracer" tool runs only).
// Compatibility accessor for Measurement.Traces.
func (o *RunOutput) Traces() []*trace.RankTrace { return o.Measurement.Traces() }

// CtxProfiles returns the per-rank call-path profiles ("hpctk" tool runs
// only). Compatibility accessor for Measurement.CtxProfiles.
func (o *RunOutput) CtxProfiles() []*hpctk.RankProfile { return o.Measurement.CtxProfiles() }

// PPG returns the assembled Program Performance Graph ("scalana" tool
// runs only). Compatibility accessor for Measurement.PPG.
func (o *RunOutput) PPG() *ppg.Graph { return o.Measurement.PPG() }

// StorageBytes is the tool's total measurement data size (0 for bare
// runs). Compatibility accessor for Measurement.StorageBytes.
func (o *RunOutput) StorageBytes() int64 { return o.Measurement.StorageBytes() }

// validateRunConfig checks a RunConfig before anything is compiled or
// simulated.
func validateRunConfig(cfg RunConfig) error {
	if cfg.App == nil {
		return fmt.Errorf("scalana: RunConfig.App is nil")
	}
	if cfg.NP < cfg.App.MinNP {
		return fmt.Errorf("scalana: %s requires at least %d ranks, got %d", cfg.App.Name, cfg.App.MinNP, cfg.NP)
	}
	if cfg.NP < 1 {
		return fmt.Errorf("scalana: %s needs at least 1 rank, got %d", cfg.App.Name, cfg.NP)
	}
	return nil
}

// bodyBuilder turns a compiled program into the per-rank body the
// simulator runs, with print() output going to cfg.Stdout and runtime
// indirect-call resolution reported to observe.
type bodyBuilder func(prog *minilang.Program, graph *psg.Graph, cfg RunConfig, observe vm.IndirectObserver) (func(*mpisim.Proc), error)

// runCompiled is the execute phase of Engine.Run: it runs an
// already-compiled, validated program on the simulator with the
// configured tool attached, each rank executing the body exec builds.
// The graph may be shared between concurrent runs: a compiled graph is
// immutable during execution — every indirect-call target a program can
// produce is pre-materialized at compile time (psg.Build), so runs only
// read it, and sharing one graph across a sweep changes neither profiles
// nor detection output.
//
// The tool is resolved through the registry (RegisterTool); runCompiled
// itself knows nothing about individual tools — it drives the generic
// ToolRun lifecycle (HooksForRank before execution, concurrent
// FinalizeRank after, one Finish at the end).
func runCompiled(prog *minilang.Program, graph *psg.Graph, cfg RunConfig, exec bodyBuilder) (*RunOutput, error) {
	name, err := cfg.resolveTool()
	if err != nil {
		return nil, err
	}

	out := &RunOutput{App: cfg.App, NP: cfg.NP, Tool: name, Graph: graph}
	wcfg := mpisim.Config{NP: cfg.NP, Seed: cfg.Seed}
	if cfg.App.CoreConfig != nil {
		wcfg.Core = cfg.App.CoreConfig(cfg.NP)
	}

	var trun ToolRun
	if name != "" {
		tool, ok := LookupTool(name)
		if !ok {
			return nil, fmt.Errorf("scalana: no measurement tool registered as %q (registered: %v)", name, Tools())
		}
		trun, err = tool.NewRun(ToolContext{Config: cfg, Graph: graph})
		if err != nil {
			return nil, fmt.Errorf("scalana: set up tool %s: %w", name, err)
		}
		if trun == nil {
			return nil, fmt.Errorf("scalana: tool %s returned no run", name)
		}
		wcfg.HookFactory = trun.HooksForRank
	}

	var observe vm.IndirectObserver
	if obs, ok := trun.(IndirectObserver); ok {
		observe = obs.ObserveIndirect
	}
	body, err := exec(prog, graph, cfg, observe)
	if err != nil {
		return nil, err
	}

	world := mpisim.NewWorld(wcfg)
	res, err := world.Run(body)
	if err != nil {
		return nil, fmt.Errorf("scalana: run %s np=%d: %w", cfg.App.Name, cfg.NP, err)
	}
	out.Result = res

	if trun == nil {
		return out, nil
	}
	// Per-rank finalization (profile extraction and storage sizing) is
	// independent across ranks; fan it out and reduce the byte counts in
	// rank order so the sum is reproducible.
	storage := make([]int64, cfg.NP)
	par.ForEach(cfg.NP, 0, func(r int) {
		storage[r] = trun.FinalizeRank(r)
	})
	data, err := trun.Finish()
	if err != nil {
		return nil, fmt.Errorf("scalana: finalize %s: %w", name, err)
	}
	m := &Measurement{tool: name, data: data}
	for _, s := range storage {
		m.storage += s
	}
	out.Measurement = m
	return out, nil
}

// vmBody is the bodyBuilder of every run: the bytecode VM. The compiled
// program is cached on the graph (psg.Graph.CompileExec), so the
// sweep-wide sharing the Engine arranges for graphs extends to bytecode:
// compile once, execute at every scale.
func vmBody(prog *minilang.Program, graph *psg.Graph, cfg RunConfig, observe vm.IndirectObserver) (func(*mpisim.Proc), error) {
	cached, err := graph.CompileExec(func() (any, error) {
		return vm.Compile(prog, graph)
	})
	if err != nil {
		return nil, fmt.Errorf("scalana: compile bytecode for %s: %w", cfg.App.Name, err)
	}
	runner := vm.NewRunner(cached.(*vm.Program))
	runner.Stdout = cfg.Stdout
	runner.OnIndirect = observe
	return runner.Execute, nil
}

// DetectScalingLoss runs problematic-vertex detection and backtracking
// root-cause analysis over profiled runs at multiple scales.
func DetectScalingLoss(runs []detect.ScaleRun, cfg detect.Config) (*detect.Report, error) {
	if cfg == (detect.Config{}) {
		cfg = detect.DefaultConfig()
	}
	return detect.Detect(runs, cfg)
}
