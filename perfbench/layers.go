package main

import (
	"fmt"
	"time"
)

// layerMetrics is every per-layer metric a traced run reports, in the
// order BENCHMARK.json lists them. A workload that never calls a layer
// reports 0 for it. Unless noted, a _ms metric is the mean self time
// per operation (the spans below its root that carry its name), so the
// _ms metrics of the operation path add up to trace.op_mean_ms.
var layerMetrics = []struct{ name, unit string }{
	{"psg.build_ms", "ms"},  // per call: scalana.CompileOptions
	{"vm.compile_ms", "ms"}, // per call: vm.Compile
	{"scalana.compile_cache_hit_share", "share"},
	{"scalana.sweep_overhead_ms", "ms"}, // Engine.Sweep and loop time outside the replayed runs
	{"mpisim.bare_run_ms", "ms"},
	{"prof.hook_overhead_ms", "ms"},
	{"prof.virtual_overhead_pct", "%"},
	{"prof.wire_bytes_per_rank", "B"},
	{"prof.encode_ms", "ms"}, // per call: prof.EncodeProfileSet
	{"prof.encode_mb_per_s", "MB/s"},
	{"prof.decode_ms", "ms"},
	{"prof.decode_mb_per_s", "MB/s"},
	{"prof.decode_allocs", "count"}, // per decoded set
	{"ppg.build_ms", "ms"},
	{"ppg.build_allocs", "count"}, // per built graph
	{"detect.detect_ms", "ms"},
	{"detect.encode_ms", "ms"},
	{"baseline.ingest_ms", "ms"},
	{"baseline.state_ms", "ms"},
	{"baseline.watch_ms", "ms"},
	{"baseline.encode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.history_ms", "ms"},
	{"store.list_ms", "ms"},
	{"store.resolve_ms", "ms"},
	{"store.get_ms", "ms"},
	{"serve.detect_overhead_ms", "ms"},
	{"serve.upload_overhead_ms", "ms"},
	{"serve.watch_overhead_ms", "ms"},
	{"serve.coalesced_share", "share"},
	{"serve.sample_cache_hit_share", "share"},
	{"trace.op_mean_ms", "ms"},            // mean traced operation latency
	{"trace.p50_overhead_ms", "ms"},       // traced minus untraced p50
	{"trace.p50_overhead_pct", "%"},       // the same, as a share of untraced p50
	{"trace.ops_per_s_overhead_pct", "%"}, // untraced minus traced ops/s, as a share of untraced
}

// spanMetric maps a span name on the operation path to the metric its
// self time feeds.
var spanMetric = map[string]string{
	"scalana.offline":   "scalana.sweep_overhead_ms",
	"scalana.sweep":     "scalana.sweep_overhead_ms",
	"prof.profiled_run": "prof.hook_overhead_ms",
	"mpisim.bare_run":   "mpisim.bare_run_ms",
	"prof.decode":       "prof.decode_ms",
	"ppg.build":         "ppg.build_ms",
	"detect.detect":     "detect.detect_ms",
	"detect.encode":     "detect.encode_ms",
	"baseline.ingest":   "baseline.ingest_ms",
	"baseline.state":    "baseline.state_ms",
	"baseline.watch":    "baseline.watch_ms",
	"baseline.encode":   "baseline.encode_ms",
	"store.put":         "store.put_ms",
	"store.history":     "store.history_ms",
	"store.list":        "store.list_ms",
	"store.resolve":     "store.resolve_ms",
	"store.get":         "store.get_ms",
	"serve.detect":      "serve.detect_overhead_ms",
	"serve.upload":      "serve.upload_overhead_ms",
	"serve.watch":       "serve.watch_overhead_ms",
}

// Root names of spans that lie outside any measured operation: set-up
// work and calls made only to measure a layer (encode for wire sizes).
const (
	rootSetup = "setup"
	rootAux   = "aux"
)

// callStat sums full span durations and bytes by name.
type callStat struct {
	calls int
	total time.Duration
	bytes int64
}

func (c callStat) meanMS() float64 {
	if c.calls == 0 {
		return 0
	}
	return ms(c.total) / float64(c.calls)
}

// mbPerS is bytes processed per second of span time, in MB/s.
func (c callStat) mbPerS() float64 {
	if c.total <= 0 {
		return 0
	}
	return float64(c.bytes) / 1e6 / c.total.Seconds()
}

// callStats groups the spans of every trace whose root is named in
// roots by span name.
func callStats(spans []span, roots ...string) map[string]callStat {
	want := map[int]bool{}
	for i, s := range spans {
		if s.Parent < 0 {
			for _, r := range roots {
				if s.Name == r {
					want[i] = true
				}
			}
		}
	}
	out := map[string]callStat{}
	for _, s := range spans {
		if want[s.Trace] {
			c := out[s.Name]
			c.calls++
			c.total += s.End - s.Start
			c.bytes += s.Bytes
			out[s.Name] = c
		}
	}
	return out
}

// tracedMetrics fills res with every per-layer metric of a traced run.
func tracedMetrics(res *result, w *workload, inst instance, plain, traced *ops, plainWall, tracedWall time.Duration, rec, setupRec *recorder) error {
	for _, m := range layerMetrics {
		res.put(m.name, 0, m.unit)
	}
	unit := map[string]string{}
	for _, m := range layerMetrics {
		unit[m.name] = m.unit
	}
	set := func(name string, v float64) error {
		u, ok := unit[name]
		if !ok {
			return fmt.Errorf("metric %s is not in the per-layer table", name)
		}
		res.put(name, v, u)
		return nil
	}

	tp := traced.get(w.primary)
	n := len(tp.lat)
	if n == 0 {
		return fmt.Errorf("traced phase completed no %s operation", w.primary)
	}
	self := selfTimes(rec.spans)
	isRoot := map[int]bool{}
	for i, s := range rec.spans {
		if s.Parent < 0 {
			for _, r := range w.roots {
				if s.Name == r {
					isRoot[i] = true
				}
			}
		}
	}
	perOp := map[string]time.Duration{}
	for i, s := range rec.spans {
		if !isRoot[s.Trace] {
			continue
		}
		m, ok := spanMetric[s.Name]
		if !ok {
			return fmt.Errorf("span %s has no per-layer metric", s.Name)
		}
		perOp[m] += self[i]
	}
	var accounted float64
	for _, m := range sortedKeys(perOp) {
		v := ms(perOp[m]) / float64(n)
		accounted += v
		if err := set(m, v); err != nil {
			return err
		}
	}
	var latSum float64
	for _, x := range tp.lat {
		latSum += x
	}
	opMean := latSum / float64(n)
	if err := set("trace.op_mean_ms", opMean); err != nil {
		return err
	}
	fmt.Printf("accounting: %d traced %s ops, mean %.4f ms; layer self times sum to %.4f ms\n", n, w.primary, opMean, accounted)

	var spans []span
	if setupRec != nil {
		spans = append(spans, setupRec.spans...)
	}
	calls := callStats(spans, rootSetup)
	for name, c := range callStats(rec.spans, rootAux) {
		s := calls[name]
		s.calls += c.calls
		s.total += c.total
		s.bytes += c.bytes
		calls[name] = s
	}
	for _, kv := range []struct{ span, metric string }{
		{"psg.build", "psg.build_ms"},
		{"vm.compile", "vm.compile_ms"},
		{"prof.encode", "prof.encode_ms"},
	} {
		if c, ok := calls[kv.span]; ok {
			if err := set(kv.metric, c.meanMS()); err != nil {
				return err
			}
		}
	}
	if c, ok := calls["prof.encode"]; ok {
		if err := set("prof.encode_mb_per_s", c.mbPerS()); err != nil {
			return err
		}
	}
	if c := callStats(rec.spans, w.roots...)["prof.decode"]; c.calls > 0 {
		if err := set("prof.decode_mb_per_s", c.mbPerS()); err != nil {
			return err
		}
	}
	extra, err := inst.layers(rec, traced)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(extra) {
		if err := set(k, extra[k]); err != nil {
			return err
		}
	}

	pp := plain.get(w.primary)
	p50u, ok1 := percentile(pp.lat, 0.5)
	p50t, ok2 := percentile(tp.lat, 0.5)
	if !ok1 || !ok2 {
		return fmt.Errorf("too few operations for the tracing-overhead p50 (%d untraced, %d traced)", len(pp.lat), n)
	}
	if err := set("trace.p50_overhead_ms", p50t-p50u); err != nil {
		return err
	}
	if err := set("trace.p50_overhead_pct", 100*(p50t-p50u)/p50u); err != nil {
		return err
	}
	rateU := float64(len(pp.lat)) / plainWall.Seconds()
	rateT := float64(n) / tracedWall.Seconds()
	return set("trace.ops_per_s_overhead_pct", 100*(rateU-rateT)/rateU)
}
