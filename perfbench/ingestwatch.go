package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	scalana "scalana"
	"scalana/internal/baseline"
	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/store"
)

// ingestWatch is a CI job feeding the service: upload a fresh profile
// set, then ask /v1/watch whether it regressed. Every round starts from
// an empty store and runs the same fixed sequence of steps, so the
// store grows identically in every round.
type ingestWatch struct {
	b     *bench
	eng   *scalana.Engine
	graph *psg.Graph
	sets  []profSet // fresh sets in upload order
	steps []watchStep

	// next is a round started during set-up; last is the most recent
	// round, kept open for verify.
	next, last *watchRound

	// Sample-cache accounting over every round.
	lookups, ingests int64
}

// watchStep uploads sets[set]; a retry re-sends a set uploaded earlier.
type watchStep struct {
	set   int
	retry bool
}

// Round shape: every retryEvery-th upload is a retry, and fresh sets
// cycle through watchNPs.
const (
	roundSteps = 120
	retryEvery = 4
)

var watchNPs = []int{32, 64, 128}

// watchMinRuns is the min-runs query parameter every watch sends, so
// even a one-run history is scored.
const watchMinRuns = 1

// watchRound is one round's service plus what the client expects of it.
type watchRound struct {
	dir     string
	svc     *service
	histLen map[int]int // expected history length per scale
	stored  int         // distinct sets stored

	// Traced replays run against shadow, a second store fed the same
	// uploads, with their own sample cache.
	shadow  *store.Store
	samples map[string]*baseline.Sample
}

func setupIngestWatch(b *bench, rec *recorder) (instance, error) {
	root := rec.begin(rootSetup, -1, time.Now())
	defer func() { rec.finish(root, time.Now()) }()
	eng := scalana.NewEngine()
	_, graph, err := eng.Compile(b.app, psg.Options{})
	if err != nil {
		return nil, err
	}
	if err := compileProbe(b.app, rec, root); err != nil {
		return nil, err
	}
	s := &ingestWatch{b: b, eng: eng, graph: graph}
	rng := rand.New(rand.NewSource(b.seed))
	byNP := map[int][]int{} // fresh set indices per scale
	retries := 0
	for i := 0; i < roundSteps; i++ {
		fresh := len(s.sets)
		if (i+1)%retryEvery == 0 {
			// Retries cycle through the scales like fresh uploads, so every
			// seed gives the same mix of step sizes; the seed picks which
			// earlier set at that scale is re-sent.
			prev := byNP[watchNPs[retries%len(watchNPs)]]
			retries++
			s.steps = append(s.steps, watchStep{set: prev[rng.Intn(len(prev))], retry: true})
			continue
		}
		np := watchNPs[fresh%len(watchNPs)]
		byNP[np] = append(byNP[np], fresh)
		ps, err := genSet(eng, b.app, np, inputHz(rng), b.seed*1000+int64(fresh), rec, root)
		if err != nil {
			return nil, err
		}
		s.sets = append(s.sets, ps)
		s.steps = append(s.steps, watchStep{set: fresh})
	}
	if s.next, err = s.newRound(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ingestWatch) newRound() (*watchRound, error) {
	dir, err := os.MkdirTemp(s.b.work, "round-")
	if err != nil {
		return nil, err
	}
	svc, err := startService(filepath.Join(dir, "store"), s.eng, 1)
	if err != nil {
		return nil, err
	}
	r := &watchRound{dir: dir, svc: svc, histLen: map[int]int{}}
	if s.b.traced {
		if r.shadow, err = store.Open(filepath.Join(dir, "shadow")); err != nil {
			return nil, err
		}
		r.samples = map[string]*baseline.Sample{}
	}
	return r, nil
}

func (r *watchRound) close() {
	r.svc.close()
	os.RemoveAll(r.dir)
}

// iterate runs one whole round: the fixed step sequence on a fresh
// service.
func (s *ingestWatch) iterate(_ int, o *ops, rec *recorder) {
	r := s.next
	s.next = nil
	if r == nil {
		var err error
		if r, err = s.newRound(); err != nil {
			o.record("step", 0, err)
			return
		}
	}
	if s.last != nil {
		s.last.close()
	}
	s.last = r
	for _, st := range s.steps {
		s.step(r, st, o, rec)
	}
	s.ingests += r.svc.srv.Stats().SampleIngests
}

type uploadResponse struct {
	Hash string `json:"hash"`
}

type watchResponse struct {
	Runs int `json:"runs"`
}

func (s *ingestWatch) step(r *watchRound, st watchStep, o *ops, rec *recorder) {
	set := s.sets[st.set]
	data, t0, t1, upErr := r.svc.do("POST", "/v1/profiles", set.data)
	if upErr == nil {
		var got uploadResponse
		if err := json.Unmarshal(data, &got); err != nil {
			upErr = fmt.Errorf("parse upload response: %w", err)
		} else if got.Hash != set.hash {
			upErr = fmt.Errorf("upload stored hash %s, want %s", got.Hash, set.hash)
		}
	}
	if upErr == nil && rec != nil {
		upErr = s.explainUpload(r, rec, rec.add("serve.upload", -1, t0, t1), set)
	}
	o.record("upload", t1.Sub(t0), upErr)
	if !st.retry {
		r.histLen[set.np]++
		r.stored++
	}
	s.lookups += int64(r.stored)

	path := fmt.Sprintf("/v1/watch?app=%s&np=%d&min-runs=%d", s.b.app.Name, set.np, watchMinRuns)
	data, t2, t3, watchErr := r.svc.do("GET", path, nil)
	if watchErr == nil {
		var got watchResponse
		if err := json.Unmarshal(data, &got); err != nil {
			watchErr = fmt.Errorf("parse watch response: %w", err)
		} else if got.Runs != r.histLen[set.np] {
			watchErr = fmt.Errorf("watch at np=%d reports %d runs, want %d (retry=%t)", set.np, got.Runs, r.histLen[set.np], st.retry)
		}
	}
	if watchErr == nil && rec != nil {
		watchErr = s.explainWatch(r, rec, rec.add("serve.watch", -1, t2, t3), set.np, data)
	}
	o.record("watch", t3.Sub(t2), watchErr)
	o.record("step", t1.Sub(t0)+t3.Sub(t2), errors.Join(upErr, watchErr))
}

// explainUpload replays the upload handler's layer calls: the
// validating decode, then the store write.
func (s *ingestWatch) explainUpload(r *watchRound, rec *recorder, root int, set profSet) error {
	rp := rec.replayUnder(root)
	id, err := rp.call("prof.decode", func() error {
		_, err := prof.DecodeProfileSet(set.data, s.graph)
		return err
	})
	if err != nil {
		return err
	}
	rec.setBytes(id, len(set.data))
	_, err = rp.call("store.put", func() error {
		_, err := r.shadow.Put(s.b.app.Name, set.np, set.data)
		return err
	})
	return err
}

// watchParams are the thresholds the server resolves for a watch query
// that sets only min-runs.
func watchParams() baseline.Params {
	p := baseline.Params{}.Normalized()
	p.MinRuns = watchMinRuns
	return p.Normalized()
}

// explainWatch replays the watch handler's layer calls: list the app,
// read each scale's history, ingest samples the cache lacks (get,
// decode, PPG build, reduce), assemble the baseline state, score, and
// encode. The replayed report must equal the served one.
func (s *ingestWatch) explainWatch(r *watchRound, rec *recorder, root int, np int, served []byte) error {
	rp := rec.replayUnder(root)
	app := s.b.app.Name
	var entries []store.Entry
	if _, err := rp.call("store.list", func() (err error) {
		entries, err = r.shadow.ListApp(app)
		return err
	}); err != nil {
		return err
	}
	var nps []int
	for _, e := range entries {
		if len(nps) == 0 || nps[len(nps)-1] != e.NP {
			nps = append(nps, e.NP) // ListApp is scale-ascending
		}
	}
	hists := map[int][]store.Entry{}
	for _, n := range nps {
		if _, err := rp.call("store.history", func() (err error) {
			hists[n], err = r.shadow.History(app, n)
			return err
		}); err != nil {
			return err
		}
	}
	for _, n := range nps {
		for _, e := range hists[n] {
			if r.samples[e.Hash] != nil {
				continue
			}
			var data []byte
			var ps *prof.ProfileSet
			var pg *ppg.Graph
			if _, err := rp.call("store.get", func() (err error) {
				data, err = r.shadow.Get(e.Key)
				return err
			}); err != nil {
				return err
			}
			id, err := rp.call("prof.decode", func() (err error) {
				ps, err = prof.DecodeProfileSet(data, s.graph)
				return err
			})
			if err != nil {
				return err
			}
			rec.setBytes(id, len(data))
			if _, err := rp.call("ppg.build", func() (err error) {
				pg, err = ppg.Build(s.graph, ps.Profiles)
				return err
			}); err != nil {
				return err
			}
			rp.call("baseline.ingest", func() error {
				r.samples[e.Hash] = baseline.Ingest(pg, e.Hash, ps.Elapsed, fit.MergeMedian)
				return nil
			})
		}
	}
	var state *baseline.State
	if _, err := rp.call("baseline.state", func() error {
		state = baseline.NewState(app, s.graph, fit.MergeMedian)
		for _, n := range nps {
			for seq, e := range hists[n] {
				if err := state.Add(seq, r.samples[e.Hash]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var rep *baseline.Report
	if _, err := rp.call("baseline.watch", func() (err error) {
		rep, err = state.Watch(np, watchParams())
		return err
	}); err != nil {
		return err
	}
	var out []byte
	if _, err := rp.call("baseline.encode", func() (err error) {
		out, err = rep.EncodeJSON()
		out = append(out, '\n')
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(out, served) {
		return fmt.Errorf("replayed watch report at np=%d differs from the served one", np)
	}
	return nil
}

// verify compares, on the last round's store, the served watch report
// at every scale with baseline.LoadStore + State.Watch + EncodeJSON
// against a freshly compiled graph.
func (s *ingestWatch) verify() (int, []error) {
	r := s.last
	if r == nil {
		return 1, []error{fmt.Errorf("no round completed")}
	}
	_, g, err := scalana.CompileOptions(s.b.app, psg.Options{}.Normalize())
	if err != nil {
		return 1, []error{err}
	}
	state, err := baseline.LoadStore(r.svc.st, s.b.app.Name, g, fit.MergeMedian)
	if err != nil {
		return 1, []error{err}
	}
	var failures []error
	for _, np := range watchNPs {
		path := fmt.Sprintf("/v1/watch?app=%s&np=%d&min-runs=%d", s.b.app.Name, np, watchMinRuns)
		served, _, _, err := r.svc.do("GET", path, nil)
		if err == nil {
			var rep *baseline.Report
			var want []byte
			if rep, err = state.Watch(np, watchParams()); err == nil {
				if want, err = rep.EncodeJSON(); err == nil && !bytes.Equal(append(want, '\n'), served) {
					err = fmt.Errorf("served watch report at np=%d differs from LoadStore+Watch", np)
				}
			}
		}
		if err != nil {
			failures = append(failures, err)
		}
	}
	return len(watchNPs), failures
}

func (s *ingestWatch) layers(*recorder, *ops) (map[string]float64, error) {
	probe := s.sets[:len(watchNPs)*3]
	dec, build, err := decodeBuildAllocs(s.graph, probe)
	if err != nil {
		return nil, err
	}
	var hit float64
	if s.lookups > 0 {
		hit = 1 - float64(s.ingests)/float64(s.lookups)
	}
	return map[string]float64{
		"scalana.compile_cache_hit_share": hitShare(s.eng),
		"prof.wire_bytes_per_rank":        wirePerRank(s.sets),
		"prof.decode_allocs":              dec,
		"ppg.build_allocs":                build,
		"serve.sample_cache_hit_share":    hit,
	}, nil
}

func (s *ingestWatch) close() {
	for _, r := range []*watchRound{s.next, s.last} {
		if r != nil {
			r.close()
		}
	}
	s.next, s.last = nil, nil
}
