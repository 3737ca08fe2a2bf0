package scalana_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"

	scalana "scalana"
)

// The fixtures under testdata/ were written by the pre-VID build
// (string-keyed profiles, ISSUE 2): cg.4.json and cg.8.json are
// scalana-prof outputs for NPB-CG at 1 kHz with seed 0, and
// cg.profiles.report.txt is the report that build produced from them.
// The tests below prove the interning refactor did not move the wire
// format: old profile directories load, produce the identical report,
// and a profile saved by this build round-trips byte-for-byte.

// loadFixtureRuns loads the legacy profile sets against a freshly
// compiled graph, exactly like scalana-detect -profiles does.
func loadFixtureRuns(t *testing.T) []detect.ScaleRun {
	t.Helper()
	app := scalana.GetApp("cg")
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	var runs []detect.ScaleRun
	for _, np := range []int{4, 8} {
		ps, err := prof.LoadProfileSet(filepath.Join("testdata", fixtureName("cg", np)), graph)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := ppg.Build(graph, ps.Profiles)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
	}
	return runs
}

func fixtureName(app string, np int) string {
	return fmt.Sprintf("%s.%d.json", app, np)
}

// TestWireFormatLegacyProfilesProduceIdenticalReport loads profile sets
// written by the pre-VID wire code through the refactored loader and
// asserts the rendered detection report matches the pre-refactor golden
// byte for byte.
func TestWireFormatLegacyProfilesProduceIdenticalReport(t *testing.T) {
	runs := loadFixtureRuns(t)
	rep, err := scalana.DetectScalingLoss(runs, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app := scalana.GetApp("cg")
	prog, err := app.Parse()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cg.profiles.report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(prog); got != string(want) {
		t.Errorf("report from legacy profiles diverged from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWireFormatSaveReloadReportIdentical runs the profiler live, saves
// the profile set, reloads it, and asserts the detect.Report built from
// the reloaded profiles is identical to the one built from the in-memory
// profiles — the loader loses nothing the detector needs.
func TestWireFormatSaveReloadReportIdentical(t *testing.T) {
	app := scalana.GetApp("cg")
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 1000
	dir := t.TempDir()
	var live, reloaded []detect.ScaleRun
	for _, np := range []int{4, 8} {
		out, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: np, Tool: scalana.ToolScalAna, Prof: cfg})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, detect.ScaleRun{NP: np, PPG: out.PPG()})
		ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
		path := filepath.Join(dir, fixtureName(app.Name, np))
		if err := ps.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := prof.LoadProfileSet(path, graph)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := ppg.Build(graph, loaded.Profiles)
		if err != nil {
			t.Fatal(err)
		}
		reloaded = append(reloaded, detect.ScaleRun{NP: np, PPG: pg})
	}
	repLive, err := scalana.DetectScalingLoss(live, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repReloaded, err := scalana.DetectScalingLoss(reloaded, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repLive, repReloaded) {
		t.Errorf("report changed across save/reload:\nlive:     %+v\nreloaded: %+v", repLive, repReloaded)
	}
}

// TestWireFormatResaveIsByteIdentical proves the refactored marshaller
// emits exactly the bytes the pre-VID build wrote: loading a legacy
// fixture and saving it again reproduces the file.
func TestWireFormatResaveIsByteIdentical(t *testing.T) {
	app := scalana.GetApp("cg")
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{4, 8} {
		name := fixtureName("cg", np)
		ps, err := prof.LoadProfileSet(filepath.Join("testdata", name), graph)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), name)
		if err := ps.Save(out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: resaved profile set is not byte-identical to the legacy file", name)
		}
	}
}
