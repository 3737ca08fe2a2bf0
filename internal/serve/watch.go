package serve

// Streaming regression endpoints. /v1/watch scores the newest stored
// run at one scale against the rolling baseline built from every
// earlier run (internal/baseline), and /v1/baseline warms or rebuilds
// the samples the run cache holds. Watch responses are exactly
// baseline.EncodeJSON()+'\n' — byte-identical to scalana-detect -watch
// -json over the same store — and concurrent identical watch requests
// coalesce into one computation, keyed by the full run history plus the
// resolved thresholds, the same single-flight regime detect uses.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"scalana/internal/baseline"
	"scalana/internal/psg"
	"scalana/internal/store"

	scalana "scalana"
)

// sampleFor returns the ingested sample for one stored set, from the
// run cache or by ingesting the stored bytes. Watch caches samples
// only, never runs, since each upload it scores is read once.
func (s *Server) sampleFor(app *scalana.App, graph *psg.Graph, e store.Entry) (*baseline.Sample, error) {
	v, err := s.cache.get(cacheKey{graph: graph, key: e.Key, kind: cacheSample}, func() (cacheValue, error) {
		data, err := s.st.Get(e.Key)
		if err != nil {
			return cacheValue{}, err
		}
		smp, err := baseline.IngestBytes(data, graph, e.Hash, s.merge)
		if err != nil {
			return cacheValue{}, errf(http.StatusConflict, "stored set %s no longer decodes against %s: %v", e.Key, app.Name, err)
		}
		if smp.NP != e.NP {
			return cacheValue{}, fmt.Errorf("stored set %s decodes to np=%d: %w", e.Key, smp.NP, store.ErrCorrupt)
		}
		s.sampleIngests.Add(1)
		return cacheValue{smp: smp}, nil
	})
	return v.smp, err
}

// histories lists every (np, upload-ordered entries) pair for an app,
// scales ascending. The store's History order assigns each run its
// baseline sequence number.
func (s *Server) histories(appName string) ([]int, map[int][]store.Entry, error) {
	entries, err := s.st.ListApp(appName)
	if err != nil {
		return nil, nil, err
	}
	npSet := map[int]bool{}
	for _, e := range entries {
		npSet[e.NP] = true
	}
	nps := make([]int, 0, len(npSet))
	for np := range npSet {
		nps = append(nps, np)
	}
	sort.Ints(nps)
	hists := make(map[int][]store.Entry, len(nps))
	for _, np := range nps {
		h, err := s.st.History(appName, np)
		if err != nil {
			return nil, nil, err
		}
		hists[np] = h
	}
	return nps, hists, nil
}

// buildState assembles the app's full baseline state from the store,
// every scale included (cross-scale slope fits need them all).
func (s *Server) buildState(app *scalana.App, nps []int, hists map[int][]store.Entry) (*baseline.State, error) {
	_, graph, err := s.engine.Compile(app, psg.Options{})
	if err != nil {
		return nil, err
	}
	state := baseline.NewState(app.Name, graph, s.merge)
	for _, np := range nps {
		for seq, e := range hists[np] {
			smp, err := s.sampleFor(app, graph, e)
			if err != nil {
				return nil, err
			}
			if err := state.Add(seq, smp); err != nil {
				return nil, err
			}
		}
	}
	return state, nil
}

// parseWatchParams overlays query-parameter overrides on the server's
// configured thresholds.
func (s *Server) parseWatchParams(q url.Values) (baseline.Params, error) {
	p := s.watch
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"z", &p.ZThd},
		{"cusum", &p.CUSUMThd},
		{"cusum-k", &p.CUSUMK},
		{"min-share", &p.MinShare},
	} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 {
			return p, errf(http.StatusBadRequest, "bad %s %q", f.name, v)
		}
		*f.dst = x
	}
	if v := q.Get("min-runs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, errf(http.StatusBadRequest, "bad min-runs %q", v)
		}
		p.MinRuns = n
	}
	return p.Normalized(), nil
}

func paramsKey(p baseline.Params) string {
	return fmt.Sprintf("z=%g|cusum=%g|k=%g|minruns=%d|minshare=%g",
		p.ZThd, p.CUSUMThd, p.CUSUMK, p.MinRuns, p.MinShare)
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	appName := q.Get("app")
	app := s.lookupApp(appName)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q", appName)
		return
	}
	p, err := s.parseWatchParams(q)
	if err != nil {
		fail(w, err)
		return
	}
	np := 0
	if v := q.Get("np"); v != "" {
		np, err = strconv.Atoi(v)
		if err != nil || np < 1 {
			writeErr(w, http.StatusBadRequest, "bad np %q", v)
			return
		}
	}
	nps, hists, err := s.histories(app.Name)
	if err != nil {
		fail(w, err)
		return
	}
	if len(nps) == 0 {
		writeErr(w, http.StatusNotFound, "no profile sets stored for app %q", appName)
		return
	}
	if np == 0 {
		np = nps[len(nps)-1] // default: watch the largest stored scale
	}
	if len(hists[np]) == 0 {
		writeErr(w, http.StatusNotFound, "no profile sets stored for app %q at np=%d", appName, np)
		return
	}

	// The flight key names the exact inputs: every scale's history in
	// upload order (slope fits read all scales) plus the resolved
	// thresholds, so "identical request" means "identical bytes out".
	var parts []string
	for _, n := range nps {
		hashes := make([]string, len(hists[n]))
		for i, e := range hists[n] {
			hashes[i] = e.Hash
		}
		parts = append(parts, fmt.Sprintf("%d:%s", n, strings.Join(hashes, ",")))
	}
	key := fmt.Sprintf("watch|%s|np=%d|%s|%s", app.Name, np, strings.Join(parts, ";"), paramsKey(p))

	s.serveFlight(w, kindWatch, key, func() ([]byte, error) {
		return s.computeWatch(app, np, p, nps, hists)
	})
}

func (s *Server) computeWatch(app *scalana.App, np int, p baseline.Params, nps []int, hists map[int][]store.Entry) ([]byte, error) {
	release := s.acquire()
	defer release()
	state, err := s.buildState(app, nps, hists)
	if err != nil {
		return nil, err
	}
	rep, err := state.Watch(np, p)
	if err != nil {
		return nil, err
	}
	data, err := rep.EncodeJSON()
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ---- baseline warm/rebuild ----

type baselineRequest struct {
	// App names the application whose stored runs to ingest.
	App string `json:"app"`
	// Rebuild drops the app's cached samples and runs first, forcing
	// re-ingestion from stored bytes.
	Rebuild bool `json:"rebuild,omitempty"`
}

type baselineScaleJSON struct {
	NP   int `json:"np"`
	Runs int `json:"runs"`
}

type baselineResponseJSON struct {
	App      string              `json:"app"`
	Merge    string              `json:"merge"`
	Scales   []baselineScaleJSON `json:"scales"`
	Runs     int                 `json:"runs"`
	Ingested int64               `json:"ingested"`
	Evicted  int                 `json:"evicted,omitempty"`
}

func (s *Server) handleBaseline(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req baselineRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	app := s.lookupApp(req.App)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q", req.App)
		return
	}
	evicted := 0
	if req.Rebuild {
		evicted = s.cache.evictApp(app.Name)
	}
	nps, hists, err := s.histories(app.Name)
	if err != nil {
		fail(w, err)
		return
	}
	if len(nps) == 0 {
		writeErr(w, http.StatusNotFound, "no profile sets stored for app %q", req.App)
		return
	}
	_, graph, err := s.engine.Compile(app, psg.Options{})
	if err != nil {
		fail(w, err)
		return
	}
	release := s.acquire()
	before := s.sampleIngests.Load()
	resp := baselineResponseJSON{App: app.Name, Merge: s.merge.String(), Evicted: evicted}
	for _, np := range nps {
		for _, e := range hists[np] {
			if _, err := s.sampleFor(app, graph, e); err != nil {
				release()
				fail(w, err)
				return
			}
		}
		resp.Scales = append(resp.Scales, baselineScaleJSON{NP: np, Runs: len(hists[np])})
		resp.Runs += len(hists[np])
	}
	release()
	resp.Ingested = s.sampleIngests.Load() - before
	writeJSON(w, http.StatusOK, resp)
}
