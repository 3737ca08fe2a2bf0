package scalana_test

import (
	"fmt"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/prof"

	scalana "scalana"
)

// benchmarkSweepNP runs one zeusmp profiled sweep at the given scale
// through the full sweep path. Compilation — PSG and bytecode alike — is
// warmed before the timed loop: the numbers measure execution, not
// compile.
func benchmarkSweepNP(b *testing.B, np int) {
	app := scalana.GetApp("zeusmp")
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	scfg := scalana.SweepConfig{Parallelism: 1, Prof: cfg}
	e := scalana.NewEngine()
	if _, err := e.Sweep(app, []int{np}, scfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Sweep(app, []int{np}, scfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepNP64 is the benchmark the committed snapshots
// (BENCH_baseline.json / BENCH_vm.json / BENCH_sched.json) are gated on.
func BenchmarkSweepNP64(b *testing.B) { benchmarkSweepNP(b, 64) }

// BenchmarkSweepNP256 and BenchmarkSweepNP1024 track scheduler scaling:
// the cooperative run-to-block scheduler keeps one runnable rank at a
// time, so cost grows with total events, not with goroutine contention.
func BenchmarkSweepNP256(b *testing.B) { benchmarkSweepNP(b, 256) }

// BenchmarkSweepNP1024 is the paper-scale point (ScalAna's evaluation
// tops out at 4,096 processes); np=1024 must fit inside CI budgets.
func BenchmarkSweepNP1024(b *testing.B) { benchmarkSweepNP(b, 1024) }

// BenchmarkSweepParallelism measures the sweep engine on the zeusmp
// {8,16,32,64} sweep at increasing worker counts. The serial
// (parallel1) sub-benchmark is the baseline the speedup claim is made
// against; every variant must produce an identical detection report.
func BenchmarkSweepParallelism(b *testing.B) {
	app := scalana.GetApp("zeusmp")
	nps := []int{8, 16, 32, 64}
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	// One engine for every variant and iteration: the app compiles once
	// (PSG and bytecode land in shared caches), so the timed loop
	// measures sweep execution rather than repeated compilation.
	e := scalana.NewEngine()
	if _, err := e.Sweep(app, nps, scalana.SweepConfig{Parallelism: 1, Prof: cfg}); err != nil {
		b.Fatal(err)
	}

	var baseline string
	for _, parallelism := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel%d", parallelism), func(b *testing.B) {
			var rep *detect.Report
			for i := 0; i < b.N; i++ {
				runs, err := e.Sweep(app, nps, scalana.SweepConfig{
					Parallelism: parallelism,
					Prof:        cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = scalana.DetectScalingLoss(runs, detect.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			prog, err := app.Parse()
			if err != nil {
				b.Fatal(err)
			}
			rendered := rep.Render(prog)
			if baseline == "" {
				baseline = rendered
			} else if rendered != baseline {
				b.Fatal("parallel sweep report differs from the serial baseline")
			}
			b.ReportMetric(float64(len(rep.NonScalable)), "nonscalable_found")
		})
	}
}

// BenchmarkSweepCompileCache isolates the compile-cache win: the same
// four-scale sweep with the cache (one compile) vs a fresh compile per
// scale (the pre-engine behavior).
func BenchmarkSweepCompileCache(b *testing.B) {
	app := scalana.GetApp("zeusmp")
	nps := []int{8, 16, 32, 64}
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000

	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := scalana.NewEngine()
			if _, err := e.Sweep(app, nps, scalana.SweepConfig{Parallelism: 1, Prof: cfg}); err != nil {
				b.Fatal(err)
			}
			if stats := e.CacheStats(); stats.Misses != 1 {
				b.Fatalf("compiled %d times, want 1", stats.Misses)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, np := range nps {
				if _, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: np, Tool: scalana.ToolScalAna, Prof: cfg}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
