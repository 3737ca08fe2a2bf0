package scalana_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"scalana/internal/commmatrix"
	"scalana/internal/detect"
	"scalana/internal/interp"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/synth"
	"scalana/internal/vm"

	scalana "scalana"
)

// The differential harness holds the bytecode VM to identical observable
// behavior with the tree-walking reference interpreter. The interpreter
// is the semantic oracle: for a given workload the harness executes every
// pipeline stage twice — once per execution engine — and demands
// byte-identical ScalAna profiles at every scale, byte-identical detect
// reports (rendered text and JSON), and identical communication
// matrices. Any divergence is a VM bug by definition.

// TestAppsByteIdentical holds the VM to the interpreter oracle on every
// registered workload: the NPB kernels, the three case-study apps with
// their -opt variants, and the demo programs.
func TestAppsByteIdentical(t *testing.T) {
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := diffApp(app, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSynthCorpusByteIdentical holds the VM to the oracle on the full
// seeded synthetic-defect corpus (the same 25-case corpus the detection
// accuracy harness evaluates).
func TestSynthCorpusByteIdentical(t *testing.T) {
	corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Cases {
		app := c.App()
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := diffApp(app, corpus.Seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// interpBody is the reference interpreter's counterpart of
// scalana.VMBody.
func interpBody(prog *minilang.Program, graph *psg.Graph, cfg scalana.RunConfig, observe vm.IndirectObserver) (func(*mpisim.Proc), error) {
	runner := interp.NewRunner(prog, graph)
	runner.Stdout = cfg.Stdout
	runner.OnIndirect = observe
	return runner.Execute, nil
}

// engines are the two execution paths the harness compares, VM first.
var engines = [2]struct {
	name string
	body scalana.BodyBuilder
}{{"vm", scalana.VMBody}, {"interp", interpBody}}

// diffScales are the job scales swept: 4 and 8, small enough for CI,
// minus those below the app's MinNP (MinNP alone when none remain).
func diffScales(app *scalana.App) []int {
	var out []int
	for _, np := range []int{4, 8} {
		if np >= app.MinNP {
			out = append(out, np)
		}
	}
	if len(out) == 0 {
		out = []int{app.MinNP}
	}
	return out
}

// diffApp runs the app through both execution engines with one seed and
// returns an error describing the first divergence, or nil when the
// interpreter and the VM agree byte-for-byte.
func diffApp(app *scalana.App, seed int64) error {
	nps := diffScales(app)
	prog, graph, err := scalana.Compile(app)
	if err != nil {
		return err
	}
	profCfg := prof.DefaultConfig()

	// Profile at every scale on both engines, comparing the encoded
	// profile sets, and keep each engine's PPGs for detection.
	runsByEngine := [2][]detect.ScaleRun{}
	for _, np := range nps {
		var encoded [2][]byte
		for i, eng := range engines {
			out, err := scalana.RunCompiled(prog, graph, scalana.RunConfig{
				App: app, NP: np, ToolName: "scalana", Prof: profCfg, Seed: seed,
			}, eng.body)
			if err != nil {
				return fmt.Errorf("%s np=%d (%s): %w", app.Name, np, eng.name, err)
			}
			ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
			if encoded[i], err = ps.Encode(); err != nil {
				return fmt.Errorf("%s np=%d (%s): encode profiles: %w", app.Name, np, eng.name, err)
			}
			runsByEngine[i] = append(runsByEngine[i], detect.ScaleRun{NP: np, PPG: out.PPG()})
		}
		if !bytes.Equal(encoded[0], encoded[1]) {
			return fmt.Errorf("%s np=%d: VM and interpreter profiles diverge:\n--- vm ---\n%s\n--- interp ---\n%s",
				app.Name, np, encoded[0], encoded[1])
		}
	}

	// The full detect stage must agree too: same report text, same JSON.
	dcfg := detect.DefaultConfig()
	dcfg.CommCauses = true
	var renders [2]string
	var jsons [2][]byte
	for i, eng := range engines {
		rep, err := scalana.DetectScalingLoss(runsByEngine[i], dcfg)
		if err != nil {
			return fmt.Errorf("%s (%s): detect: %w", app.Name, eng.name, err)
		}
		renders[i] = rep.Render(prog)
		if jsons[i], err = rep.EncodeJSON(); err != nil {
			return fmt.Errorf("%s (%s): encode report: %w", app.Name, eng.name, err)
		}
	}
	if renders[0] != renders[1] {
		return fmt.Errorf("%s: VM and interpreter detect reports diverge:\n--- vm ---\n%s\n--- interp ---\n%s",
			app.Name, renders[0], renders[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		return fmt.Errorf("%s: VM and interpreter detect report JSON diverges:\n--- vm ---\n%s\n--- interp ---\n%s",
			app.Name, jsons[0], jsons[1])
	}

	// Communication matrices at the smallest scale.
	var mats [2]*commmatrix.Matrix
	for i, eng := range engines {
		out, err := scalana.RunCompiled(prog, graph, scalana.RunConfig{
			App: app, NP: nps[0], ToolName: "commmatrix", Seed: seed,
		}, eng.body)
		if err != nil {
			return fmt.Errorf("%s np=%d (%s): comm matrix run: %w", app.Name, nps[0], eng.name, err)
		}
		m, ok := out.Measurement.Data().(*commmatrix.Matrix)
		if !ok {
			return fmt.Errorf("%s: commmatrix tool produced %T, want *commmatrix.Matrix", app.Name, out.Measurement.Data())
		}
		mats[i] = m
	}
	if mats[0].NP != mats[1].NP ||
		!reflect.DeepEqual(mats[0].Bytes, mats[1].Bytes) ||
		!reflect.DeepEqual(mats[0].Msgs, mats[1].Msgs) {
		return fmt.Errorf("%s np=%d: VM and interpreter comm matrices diverge (vm total %g bytes, interp total %g bytes)",
			app.Name, nps[0], mats[0].TotalBytes(), mats[1].TotalBytes())
	}
	return nil
}
