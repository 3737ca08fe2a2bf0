package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	scalana "scalana"
	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/store"
)

// storedDetect is the service's main read path: concurrent clients ask
// POST /v1/detect for one stored run per scale, chosen by hash.
type storedDetect struct {
	b     *bench
	eng   *scalana.Engine
	graph *psg.Graph
	svc   *service
	nps   []int
	sets  [][]profSet // per scale, runsPerScale each
	rngs  []*rand.Rand

	mu     sync.Mutex
	served map[string][]byte // first response per hash combination
	count  map[string]int    // correct responses per combination
}

// runsPerScale is how many stored runs each scale offers.
const runsPerScale = 4

func setupStoredDetect(b *bench, rec *recorder) (instance, error) {
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
	s := &storedDetect{b: b, eng: eng, graph: graph, nps: []int{64, 128, 256},
		served: map[string][]byte{}, count: map[string]int{}}
	rng := rand.New(rand.NewSource(b.seed))
	for i, np := range s.nps {
		var row []profSet
		for j := 0; j < runsPerScale; j++ {
			ps, err := genSet(eng, b.app, np, inputHz(rng), b.seed*100+int64(i*runsPerScale+j), rec, root)
			if err != nil {
				return nil, err
			}
			row = append(row, ps)
		}
		s.sets = append(s.sets, row)
	}
	dir, err := os.MkdirTemp(b.work, "store-")
	if err != nil {
		return nil, err
	}
	s.svc, err = startService(dir, eng, b.clients)
	if err != nil {
		return nil, err
	}
	for _, row := range s.sets {
		for _, ps := range row {
			if _, err := s.svc.st.Put(b.app.Name, ps.np, ps.data); err != nil {
				return nil, err
			}
		}
	}
	for c := 0; c < b.clients; c++ {
		s.rngs = append(s.rngs, rand.New(rand.NewSource(b.seed*7919+int64(c)+1)))
	}
	return s, nil
}

type detectRequest struct {
	App    string   `json:"app"`
	Hashes []string `json:"hashes"`
}

func (s *storedDetect) iterate(client int, o *ops, rec *recorder) {
	rng := s.rngs[client]
	hashes := make([]string, len(s.nps))
	for i := range s.nps {
		hashes[i] = s.sets[i][rng.Intn(runsPerScale)].hash
	}
	body, err := json.Marshal(detectRequest{App: s.b.app.Name, Hashes: hashes})
	if err != nil {
		o.record("detect", 0, err)
		return
	}
	key := strings.Join(hashes, ",")
	data, t0, t1, err := s.svc.do("POST", "/v1/detect", body)
	if err == nil {
		err = s.checkServed(key, data)
	}
	if err == nil && rec != nil {
		err = s.explain(rec, rec.add("serve.detect", -1, t0, t1), hashes, data)
	}
	o.record("detect", t1.Sub(t0), err)
}

// checkServed holds every response for one hash combination to the
// first one; verify later holds the first to the direct path.
func (s *storedDetect) checkServed(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.served[key]
	if !ok {
		s.served[key] = data
	} else if !bytes.Equal(first, data) {
		return fmt.Errorf("detect response for %s differs from an earlier one", key)
	}
	s.count[key]++
	return nil
}

// explain replays the handler's layer calls for one request, in
// handler order: resolve each hash, then per run get, decode and build
// the PPG, then detect and encode. The replayed report must equal the
// served one.
func (s *storedDetect) explain(rec *recorder, root int, hashes []string, served []byte) error {
	rp := rec.replayUnder(root)
	app := s.b.app.Name
	entries := make([]store.Entry, len(hashes))
	for i, h := range hashes {
		if _, err := rp.call("store.resolve", func() (err error) {
			entries[i], err = s.svc.st.Resolve(app, h)
			return err
		}); err != nil {
			return err
		}
	}
	var runs []detect.ScaleRun
	for _, e := range entries {
		var data []byte
		var ps *prof.ProfileSet
		var pg *ppg.Graph
		if _, err := rp.call("store.get", func() (err error) {
			data, err = s.svc.st.Get(e.Key)
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
		runs = append(runs, detect.ScaleRun{NP: e.NP, PPG: pg})
	}
	var rep *detect.Report
	if _, err := rp.call("detect.detect", func() (err error) {
		rep, err = scalana.DetectScalingLoss(runs, detect.DefaultConfig())
		return err
	}); err != nil {
		return err
	}
	var out []byte
	if _, err := rp.call("detect.encode", func() (err error) {
		out, err = rep.EncodeJSON()
		out = append(out, '\n')
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(out, served) {
		return fmt.Errorf("replayed detect report differs from the served one")
	}
	return nil
}

// verify recomputes each served combination on the direct path — Get,
// DecodeProfileSet, ppg.Build, DetectScalingLoss, EncodeJSON — against a
// freshly compiled graph, and compares bytes.
func (s *storedDetect) verify() (int, []error) {
	_, g, err := scalana.CompileOptions(s.b.app, psg.Options{}.Normalize())
	if err != nil {
		return 1, []error{err}
	}
	pgs := map[string]*ppg.Graph{}
	for i, row := range s.sets {
		for _, ps := range row {
			data, err := s.svc.st.Get(store.Key{App: s.b.app.Name, NP: s.nps[i], Hash: ps.hash})
			if err != nil {
				return 1, []error{err}
			}
			set, err := prof.DecodeProfileSet(data, g)
			if err != nil {
				return 1, []error{err}
			}
			pg, err := ppg.Build(g, set.Profiles)
			if err != nil {
				return 1, []error{err}
			}
			pgs[ps.hash] = pg
		}
	}
	var failures []error
	keys := sortedKeys(s.served)
	for _, key := range keys {
		var runs []detect.ScaleRun
		for i, h := range strings.Split(key, ",") {
			runs = append(runs, detect.ScaleRun{NP: s.nps[i], PPG: pgs[h]})
		}
		rep, err := scalana.DetectScalingLoss(runs, detect.DefaultConfig())
		if err == nil {
			var want []byte
			want, err = rep.EncodeJSON()
			if err == nil && !bytes.Equal(append(want, '\n'), s.served[key]) {
				err = fmt.Errorf("served detect report for %s differs from the direct path (%d responses)", key, s.count[key])
			}
		}
		if err != nil {
			failures = append(failures, err)
		}
	}
	return len(keys), failures
}

func (s *storedDetect) layers(*recorder, *ops) (map[string]float64, error) {
	var all []profSet
	for _, row := range s.sets {
		all = append(all, row...)
	}
	dec, build, err := decodeBuildAllocs(s.graph, all)
	if err != nil {
		return nil, err
	}
	st := s.svc.srv.Stats()
	var coalesced float64
	if n := st.DetectComputes + st.DetectCoalesced; n > 0 {
		coalesced = float64(st.DetectCoalesced) / float64(n)
	}
	return map[string]float64{
		"scalana.compile_cache_hit_share": hitShare(s.eng),
		"prof.wire_bytes_per_rank":        wirePerRank(all),
		"prof.decode_allocs":              dec,
		"ppg.build_allocs":                build,
		"serve.coalesced_share":           coalesced,
	}, nil
}

func (s *storedDetect) close() { s.svc.close() }
