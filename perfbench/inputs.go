package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	scalana "scalana"
	"scalana/internal/minilang"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/serve"
	"scalana/internal/store"
	"scalana/internal/vm"
)

// profSet is one encoded profile set, the service's upload format.
type profSet struct {
	np   int
	data []byte
	hash string
}

// inputHz draws a sampling rate near the 1000 Hz scalana-detect default.
// Distinct rates give each generated set distinct bytes.
func inputHz(rng *rand.Rand) float64 { return 990 + 20*rng.Float64() }

// genSet profiles the app once with the scalana tool and encodes the
// result, as scalana-prof does. The encode is recorded under root.
func genSet(eng *scalana.Engine, app *scalana.App, np int, hz float64, seed int64, rec *recorder, root int) (profSet, error) {
	pc := prof.DefaultConfig()
	pc.SampleHz = hz
	pc.Seed = seed
	out, err := eng.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pc, Seed: seed})
	if err != nil {
		return profSet{}, err
	}
	ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Measurement.Profiles()}
	var data []byte
	id, err := rec.timed("prof.encode", root, func() (err error) {
		data, err = prof.EncodeProfileSet(ps)
		return err
	})
	if err != nil {
		return profSet{}, fmt.Errorf("encode np=%d: %w", np, err)
	}
	rec.setBytes(id, len(data))
	return profSet{np: np, data: data, hash: store.HashOf(data)}, nil
}

// compileProbe times the two compile layers directly, outside the
// engine's cache, a few times each.
func compileProbe(app *scalana.App, rec *recorder, root int) error {
	if rec == nil {
		return nil
	}
	for i := 0; i < 3; i++ {
		var prog *minilang.Program
		var g *psg.Graph
		if _, err := rec.timed("psg.build", root, func() (err error) {
			prog, g, err = scalana.CompileOptions(app, psg.Options{}.Normalize())
			return err
		}); err != nil {
			return err
		}
		if _, err := rec.timed("vm.compile", root, func() error {
			_, err := vm.Compile(prog, g)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// hitShare is the engine's compile-cache hit share.
func hitShare(eng *scalana.Engine) float64 {
	cs := eng.CacheStats()
	if cs.Hits+cs.Misses == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(cs.Hits+cs.Misses)
}

// allocsOf counts heap allocations made while fn runs. Callers run it
// while no other goroutine allocates.
func allocsOf(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// decodeBuildAllocs returns the mean allocations of one decode and one
// PPG build over sets.
func decodeBuildAllocs(g *psg.Graph, sets []profSet) (decode, build float64, err error) {
	for _, s := range sets {
		var ps *prof.ProfileSet
		n, err := allocsOf(func() (err error) {
			ps, err = prof.DecodeProfileSet(s.data, g)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		decode += float64(n)
		n, err = allocsOf(func() error {
			_, err := ppg.Build(g, ps.Profiles)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		build += float64(n)
	}
	return decode / float64(len(sets)), build / float64(len(sets)), nil
}

// wirePerRank is the mean encoded size per rank over sets.
func wirePerRank(sets []profSet) float64 {
	var sum float64
	for _, s := range sets {
		sum += float64(len(s.data)) / float64(s.np)
	}
	return sum / float64(len(sets))
}

// service is an in-process scalana-serve over one store.
type service struct {
	st     *store.Store
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func startService(dir string, eng *scalana.Engine, clients int) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Engine: eng})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return &service{st: st, srv: srv, hs: hs, client: client}, nil
}

// do sends one request and reads the whole response. The latency runs
// from just before the call until the last response byte is read.
func (s *service) do(method, path string, body []byte) (data []byte, t0, t1 time.Time, err error) {
	req, err := http.NewRequest(method, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, t0, t1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, t0, time.Now(), err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 = time.Now()
	if err != nil {
		return nil, t0, t1, err
	}
	return data, t0, t1, statusErr(resp.StatusCode, data)
}

func (s *service) close() {
	s.hs.Close()
	if t, ok := s.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
