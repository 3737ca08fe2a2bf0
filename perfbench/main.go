// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload against the program's public
// entry points (scalana.Engine, prof, ppg, detect, baseline, store and
// serve over an in-process HTTP server), checks every output for
// correctness, and prints its metrics as one JSON object on the last
// line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it spends half the time untraced and half traced, and reports the
// per-layer metrics plus the tracing overhead. LAYERS.md explains each
// workload and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	scalana "scalana"
)

// procStart approximates process start. It is taken when package main
// initializes, after the runtime and the program's packages have
// started, which takes a few milliseconds.
var procStart = time.Now()

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 3

// hardCap bounds a run's wall time when a phase has to keep going to
// collect enough samples for its percentiles.
const hardCap = 150 * time.Second

// instance is one set-up workload, ready to measure.
type instance interface {
	// iterate runs one closed-loop iteration for one client and records
	// its outcomes in o. With rec non-nil it also records spans.
	iterate(client int, o *ops, rec *recorder)
	// verify runs the post-run correctness checks. It returns how many
	// checks ran and the failures.
	verify() (checks int, failures []error)
	// layers returns the traced-phase per-layer metrics that the span
	// tree alone does not give (counters, shares, allocations).
	layers(rec *recorder, traced *ops) (map[string]float64, error)
	close()
}

// workload describes one named workload.
type workload struct {
	name string
	// clients is the closed loop's client count.
	clients int
	// primary is the op kind the end-to-end metrics read; kinds lists
	// every kind printed by name.
	primary string
	kinds   []string
	// roots maps traced root span names to the op they belong to.
	roots []string
	setup func(b *bench, rec *recorder) (instance, error)
}

// bench is one run's configuration.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	clients int
	work    string // scratch directory inside the checkout
	app     *scalana.App
}

func workloads() []workload {
	n := runtime.NumCPU()
	return []workload{
		{name: "sim-sweep", clients: 1, primary: "sweep", kinds: []string{"sweep"},
			roots: []string{"scalana.offline"}, setup: setupSimSweep},
		{name: "stored-detect", clients: n, primary: "detect", kinds: []string{"detect"},
			roots: []string{"serve.detect"}, setup: setupStoredDetect},
		{name: "ingest-watch", clients: 1, primary: "step", kinds: []string{"upload", "watch", "step"},
			roots: []string{"serve.upload", "serve.watch"}, setup: setupIngestWatch},
	}
}

func main() {
	name := flag.String("workload", "", "workload: sim-sweep, stored-detect or ingest-watch")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	all := workloads()
	for i := range all {
		if all[i].name == name {
			w = &all[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	app := scalana.GetApp("zeusmp")
	if app == nil {
		return fmt.Errorf("app zeusmp is not registered")
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-work-")
	if err != nil {
		return fmt.Errorf("make scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	b := &bench{seed: seed, seconds: seconds, traced: traced, clients: w.clients, work: work, app: app}

	// Set up repeatedly from scratch and keep the last instance; the
	// first repetition is timed from process start.
	reps := setupReps
	var setupRec *recorder
	if traced {
		reps = 1
		setupRec = newRecorder()
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		if inst != nil {
			inst.close()
		}
		inst, err = w.setup(b, setupRec)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	measure := time.Duration(seconds * float64(time.Second))
	need := minSamplesFor(0.95)
	if traced {
		measure /= 2
		need = minSamplesFor(0.5)
	}
	plain := newOps()
	plainWall := phase(inst, w, measure, need, plain, nil)
	var rec *recorder
	var tops *ops
	var tracedWall time.Duration
	if traced {
		rec, tops = newRecorder(), newOps()
		tracedWall = phase(inst, w, measure, need, tops, rec)
	}
	checks, failures := inst.verify()
	for _, f := range failures {
		logf("correctness check failed: %v", f)
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, o := range []*ops{plain, tops} {
		if o == nil {
			continue
		}
		t := o.get(w.primary)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	res.Attempted += checks
	res.Failed += len(failures)
	res.Correct = res.Failed == 0

	printIdentity(w, b, plain, tops, checks, len(failures))
	pt := plain.get(w.primary)
	okOps := float64(len(pt.lat))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	human := []metricLine{{"setup_s", median(setups), "s"}}
	for _, k := range w.kinds {
		t := plain.get(k)
		if p50, ok := percentile(t.lat, 0.5); ok {
			human = append(human, metricLine{k + "_p50_ms", p50, "ms"})
		}
		if p95, ok := percentile(t.lat, 0.95); ok {
			human = append(human, metricLine{k + "_p95_ms", p95, "ms"})
		}
	}
	human = append(human,
		metricLine{"ops_per_s", okOps / plainWall.Seconds(), "1/s"},
		metricLine{"failed_share", float64(res.Failed) / float64(res.Attempted), "share"},
		metricLine{"peak_rss_mb", rss, "MB"})
	for _, m := range human {
		fmt.Printf("metric %-22s %14.4f %s\n", m.name, m.value, m.unit)
	}

	if !traced {
		if res.Metrics, err = endToEnd(setups, pt, plainWall, rss); err != nil {
			return err
		}
	} else {
		if err := tracedMetrics(&res, w, inst, plain, tops, plainWall, tracedWall, rec, setupRec); err != nil {
			return err
		}
		if err := rec.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations and checks failed", res.Failed, res.Attempted)
	}
	return nil
}

// phase runs the closed loop: each client iterates until the phase has
// lasted d and the primary kind has at least need correct samples, or
// the run reaches hardCap. It returns the phase's wall time.
func phase(inst instance, w *workload, d time.Duration, need int, o *ops, rec *recorder) time.Duration {
	start := time.Now()
	done := func() bool {
		if time.Since(procStart) > hardCap {
			return true
		}
		return time.Since(start) >= d && o.correct(w.primary) >= need
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !done() {
				inst.iterate(c, o, rec)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// endToEnd computes the gated metrics of an untraced run from the
// set-up times, the primary kind's tally, the measured phase's wall time
// and the peak RSS.
func endToEnd(setups []float64, t *tally, wall time.Duration, rss float64) (map[string]metricValue, error) {
	p50, ok50 := percentile(t.lat, 0.5)
	p95, ok95 := percentile(t.lat, 0.95)
	if !ok50 || !ok95 {
		return nil, fmt.Errorf("%d correct operations are too few for a p95 with %d samples beyond it", len(t.lat), minTail)
	}
	return map[string]metricValue{
		"setup_s":     {median(setups), "s"},
		"op_p50_ms":   {p50, "ms"},
		"op_p95_ms":   {p95, "ms"},
		"ops_per_s":   {float64(len(t.lat)) / wall.Seconds(), "1/s"},
		"peak_rss_mb": {rss, "MB"},
	}, nil
}

type metricLine struct {
	name  string
	value float64
	unit  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// printIdentity records what ran where, so later comparisons can match
// like with like.
func printIdentity(w *workload, b *bench, plain, traced *ops, checks, checkFailures int) {
	counts := map[string]map[string]int{}
	for phaseName, o := range map[string]*ops{"untraced": plain, "traced": traced} {
		if o == nil {
			continue
		}
		for _, k := range w.kinds {
			t := o.get(k)
			counts[phaseName+"."+k] = map[string]int{"attempted": t.attempted, "failed": t.failed}
		}
	}
	counts["post_run_checks"] = map[string]int{"attempted": checks, "failed": checkFailures}
	id := map[string]any{
		"workload":      w.name,
		"seed":          b.seed,
		"seconds":       b.seconds,
		"trace":         b.traced,
		"clients":       w.clients,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
		"ops":           counts,
	}
	data, _ := json.Marshal(id) // a map of plain values always marshals
	fmt.Printf("identity %s\n", data)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
