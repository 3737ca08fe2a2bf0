package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	scalana "scalana"
	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// simSweep is the offline path of scalana-detect in simulate mode: one
// caller sweeping zeusmp on the simulator, detecting and encoding.
type simSweep struct {
	b   *bench
	eng *scalana.Engine
	nps []int
	cfg scalana.SweepConfig
	// want is the report the set-up sweep produced; every operation must
	// reproduce it byte for byte.
	want []byte

	// Traced-phase measurements (one client, so no locking).
	virtPct  []float64
	perRank  []float64
	profiles map[int]*scalana.RunOutput
}

// rootCause is the zeusmp root cause the paper diagnoses (§VI-D1); it
// is the top-ranked cause at every scale set this workload uses.
const rootCause = "@bval3d"

// warmups is how many sweeps set-up runs before measuring.
const warmups = 3

func setupSimSweep(b *bench, rec *recorder) (instance, error) {
	root := rec.begin(rootSetup, -1, time.Now())
	defer func() { rec.finish(root, time.Now()) }()
	eng := scalana.NewEngine()
	if _, _, err := eng.Compile(b.app, psg.Options{}); err != nil {
		return nil, err
	}
	if err := compileProbe(b.app, rec, root); err != nil {
		return nil, err
	}
	pc := prof.DefaultConfig()
	pc.SampleHz = 1000
	s := &simSweep{
		b:        b,
		eng:      eng,
		nps:      []int{64, 128, 256},
		cfg:      scalana.SweepConfig{Parallelism: 1, Prof: pc, Seed: b.seed},
		profiles: map[int]*scalana.RunOutput{},
	}
	// Warm-up sweeps: the first compiles the bytecode and gives the
	// reference report, which the others must reproduce. Several sweeps
	// also make set-up time less sensitive to one slow sweep.
	for i := 0; i < warmups; i++ {
		data, rep, _, err := s.offline(nil, -1)
		if err != nil {
			return nil, err
		}
		if err := topCause(rep); err != nil {
			return nil, err
		}
		if i == 0 {
			s.want = data
		} else if !bytes.Equal(data, s.want) {
			return nil, fmt.Errorf("warm-up sweep %d report differs from the first", i)
		}
	}
	return s, nil
}

// offline is one operation: Engine.Sweep, DetectScalingLoss, EncodeJSON.
// It returns the sweep span's index for the replay.
func (s *simSweep) offline(rec *recorder, root int) (data []byte, rep *detect.Report, sweepID int, err error) {
	var runs []detect.ScaleRun
	sweepID, err = rec.timed("scalana.sweep", root, func() (err error) {
		runs, err = s.eng.Sweep(s.b.app, s.nps, s.cfg)
		return err
	})
	if err != nil {
		return nil, nil, -1, err
	}
	if _, err = rec.timed("detect.detect", root, func() (err error) {
		rep, err = scalana.DetectScalingLoss(runs, detect.DefaultConfig())
		return err
	}); err != nil {
		return nil, nil, -1, err
	}
	_, err = rec.timed("detect.encode", root, func() (err error) {
		data, err = rep.EncodeJSON()
		data = append(data, '\n')
		return err
	})
	return data, rep, sweepID, err
}

func topCause(rep *detect.Report) error {
	if len(rep.Causes) == 0 {
		return fmt.Errorf("report names no root cause")
	}
	if k := rep.Causes[0].VertexKey; !strings.Contains(k, rootCause) {
		return fmt.Errorf("top cause is %s, want the %s vertex", k, rootCause)
	}
	return nil
}

func (s *simSweep) iterate(_ int, o *ops, rec *recorder) {
	t0 := time.Now()
	root := rec.begin("scalana.offline", -1, t0)
	data, rep, sweepID, err := s.offline(rec, root)
	t1 := time.Now()
	rec.finish(root, t1)
	if err == nil && !bytes.Equal(data, s.want) {
		err = fmt.Errorf("report bytes differ from the set-up sweep's for identical inputs")
	}
	if err == nil {
		err = topCause(rep)
	}
	if err == nil && rec != nil {
		err = s.explain(rec, sweepID)
	}
	o.record("sweep", t1.Sub(t0), err)
}

// explain re-runs each scale of the sweep through the layers it is made
// of: a profiled run (VM, scheduler, profiler hooks, per-rank finalize
// and PPG build), the same run with no tool, and the PPG build alone.
// The profiled run's self time is then the profiler's cost.
func (s *simSweep) explain(rec *recorder, sweepID int) error {
	rp := rec.replayUnder(sweepID)
	for _, np := range s.nps {
		var out, bare *scalana.RunOutput
		profID, err := rp.call("prof.profiled_run", func() (err error) {
			out, err = s.eng.Run(scalana.RunConfig{App: s.b.app, NP: np, ToolName: "scalana", Prof: s.cfg.Prof, Seed: s.cfg.Seed})
			return err
		})
		if err != nil {
			return err
		}
		inner := rec.replayUnder(profID)
		if _, err := inner.call("mpisim.bare_run", func() (err error) {
			bare, err = s.eng.Run(scalana.RunConfig{App: s.b.app, NP: np, Seed: s.cfg.Seed})
			return err
		}); err != nil {
			return err
		}
		if _, err := inner.call("ppg.build", func() error {
			_, err := ppg.Build(out.Graph, out.Measurement.Profiles())
			return err
		}); err != nil {
			return err
		}
		aux := rec.begin(rootAux, -1, time.Now())
		ps := &prof.ProfileSet{App: s.b.app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Measurement.Profiles()}
		var wire []byte
		id, err := rec.timed("prof.encode", aux, func() (err error) {
			wire, err = prof.EncodeProfileSet(ps)
			return err
		})
		rec.finish(aux, time.Now())
		if err != nil {
			return err
		}
		rec.setBytes(id, len(wire))
		s.perRank = append(s.perRank, float64(len(wire))/float64(np))
		s.virtPct = append(s.virtPct, 100*(out.Result.Elapsed-bare.Result.Elapsed)/bare.Result.Elapsed)
		s.profiles[np] = out
	}
	return nil
}

func (s *simSweep) verify() (int, []error) { return 0, nil }

func (s *simSweep) layers(*recorder, *ops) (map[string]float64, error) {
	var build float64
	for _, np := range s.nps {
		out := s.profiles[np]
		if out == nil {
			return nil, fmt.Errorf("no traced run at np=%d", np)
		}
		n, err := allocsOf(func() error {
			_, err := ppg.Build(out.Graph, out.Measurement.Profiles())
			return err
		})
		if err != nil {
			return nil, err
		}
		build += float64(n)
	}
	return map[string]float64{
		"scalana.compile_cache_hit_share": hitShare(s.eng),
		"prof.virtual_overhead_pct":       mean(s.virtPct),
		"prof.wire_bytes_per_rank":        mean(s.perRank),
		"ppg.build_allocs":                build / float64(len(s.nps)),
	}, nil
}

func (s *simSweep) close() {}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
