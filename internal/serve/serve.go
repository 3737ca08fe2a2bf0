// Package serve implements detection-as-a-service: the HTTP core behind
// cmd/scalana-serve. The paper's four-step workflow (profile → build
// PPG → detect → report, §V) is exactly a request/response shape, and a
// production deployment runs it continuously against many applications
// at many scales — so profile sets persist in a content-addressed store
// (internal/store), one scalana.Engine is shared across every request
// (PSG and bytecode compilation amortize across uploads of the same
// app), simulation work is bounded by a worker gate sized by the
// SweepConfig.Parallelism knob, and concurrent identical detect
// requests coalesce into one computation (single-flight keyed by the
// stored content hashes plus the normalized detect config).
//
// Endpoints (all JSON):
//
//	GET  /healthz                         liveness
//	GET  /v1/stats                        counters: uploads, computes, coalescing, compile cache
//	GET  /v1/apps                         bundled + uploaded application names
//	POST /v1/apps                         register an ad-hoc app {name, source, min_np}
//	POST /v1/profiles                     upload a profile set (prof.EncodeProfileSet bytes)
//	GET  /v1/profiles[?app=]              list stored sets
//	GET  /v1/profiles/{app}/{np}/{hash}   stored bytes, byte-identical to the upload
//	POST /v1/detect                       detect report (detect.EncodeJSON bytes)
//	GET  /v1/sweep?app=&scales=           per-scale elapsed/speedup/efficiency + log-log model
//	GET  /v1/comm?app=&np=                simulated rank-to-rank communication matrix
//	POST /v1/baseline                     warm/rebuild rolling baselines {app, rebuild}
//	GET  /v1/watch?app=[&np=]             newest run vs rolling baseline (baseline.EncodeJSON bytes)
//
// A detect request reads stored profile sets by default (name scales,
// or hashes, or nothing for "every stored scale"); with "simulate":
// true it sweeps the app on the simulator instead. Either way the
// response bytes are exactly what scalana-detect -json writes for the
// same inputs.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scalana/internal/baseline"
	"scalana/internal/commmatrix"
	"scalana/internal/detect"
	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/scales"
	"scalana/internal/store"

	scalana "scalana"
)

// Config configures a Server.
type Config struct {
	// Store is the content-addressed profile store (required).
	Store *store.Store
	// Engine is the shared compile cache; nil creates a fresh one. One
	// engine serves every request, so PSG and bytecode compilation for an
	// app happen once no matter how many uploads and queries touch it.
	Engine *scalana.Engine
	// Parallelism is the SweepConfig.Parallelism knob, reused at the
	// service level: it bounds how many simulation/PPG computations run
	// concurrently across all requests, and each simulate-mode sweep fans
	// its scales across the same bound. 0 means one worker per CPU.
	Parallelism int
	// SampleHz is the profiler rate for simulate-mode detect runs
	// (default 1000, matching scalana-detect's flag default).
	SampleHz float64
	// Watch sets the default regression-flagging thresholds for
	// /v1/watch; zero fields take baseline.DefaultParams. Individual
	// requests may override them via query parameters.
	Watch baseline.Params
	// Merge is the cross-rank merge strategy baselines are built with.
	// It is server-wide, not per-request: samples cached under one
	// strategy are not comparable to baselines built under another.
	Merge fit.MergeStrategy
	// Logf receives one line per request (nil disables logging).
	Logf func(format string, args ...any)
}

// Server is the detection service. Create with New; safe for concurrent
// use.
type Server struct {
	st       *store.Store
	engine   *scalana.Engine
	parallel int
	sampleHz float64
	logf     func(format string, args ...any)

	// gate bounds concurrent simulation/PPG work across requests.
	gate chan struct{}

	// flights coalesces concurrent identical computations per endpoint.
	flights flightGroup

	mu       sync.Mutex
	uploaded map[string]*scalana.App

	// watch holds the server-wide default flagging thresholds; merge the
	// server-wide baseline merge strategy.
	watch baseline.Params
	merge fit.MergeStrategy

	// samples caches ingested baseline samples by store key. Entries are
	// content-addressed (derived from stored bytes + compiled graph +
	// server-wide merge strategy only), so the cache never invalidates.
	sampleMu sync.Mutex
	samples  map[store.Key]*baseline.Sample

	uploads         atomic.Int64
	detectComputes  atomic.Int64
	detectCoalesced atomic.Int64
	sweepComputes   atomic.Int64
	sweepCoalesced  atomic.Int64
	commComputes    atomic.Int64
	commCoalesced   atomic.Int64
	watchComputes   atomic.Int64
	watchCoalesced  atomic.Int64
	sampleIngests   atomic.Int64

	// detectGate, when non-nil, blocks every detect computation until the
	// channel closes. Test hook: it lets the coalescing test hold the
	// first computation open until a second request has verifiably
	// joined. Set before the server starts handling requests.
	detectGate chan struct{}
	// watchGate is the same hook for watch computations.
	watchGate chan struct{}
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	eng := cfg.Engine
	if eng == nil {
		eng = scalana.NewEngine()
	}
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.NumCPU()
	}
	hz := cfg.SampleHz
	if hz <= 0 {
		hz = 1000
	}
	return &Server{
		st:       cfg.Store,
		engine:   eng,
		parallel: p,
		sampleHz: hz,
		watch:    cfg.Watch.Normalized(),
		merge:    cfg.Merge,
		samples:  map[store.Key]*baseline.Sample{},
		logf:     cfg.Logf,
		gate:     make(chan struct{}, p),
		uploaded: map[string]*scalana.App{},
	}, nil
}

// Stats is the /v1/stats payload.
type Stats struct {
	// Uploads counts accepted profile-set uploads (idempotent re-uploads
	// included).
	Uploads int64 `json:"uploads"`
	// StoredSets is the number of profile sets currently in the store.
	StoredSets int `json:"stored_sets"`
	// DetectComputes counts detect computations actually performed;
	// DetectCoalesced counts requests answered by joining an in-flight
	// identical computation.
	DetectComputes  int64 `json:"detect_computes"`
	DetectCoalesced int64 `json:"detect_coalesced"`
	SweepComputes   int64 `json:"sweep_computes"`
	SweepCoalesced  int64 `json:"sweep_coalesced"`
	CommComputes    int64 `json:"comm_computes"`
	CommCoalesced   int64 `json:"comm_coalesced"`
	WatchComputes   int64 `json:"watch_computes"`
	WatchCoalesced  int64 `json:"watch_coalesced"`
	// BaselineSamples is the number of ingested samples in the baseline
	// cache; SampleIngests counts ingestions performed (cache misses).
	BaselineSamples int   `json:"baseline_samples"`
	SampleIngests   int64 `json:"sample_ingests"`
	// CompileCache is the shared engine's PSG compile-cache counters.
	CompileCache scalana.CacheStats `json:"compile_cache"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	entries, _ := s.st.List()
	return Stats{
		Uploads:         s.uploads.Load(),
		StoredSets:      len(entries),
		DetectComputes:  s.detectComputes.Load(),
		DetectCoalesced: s.detectCoalesced.Load(),
		SweepComputes:   s.sweepComputes.Load(),
		SweepCoalesced:  s.sweepCoalesced.Load(),
		CommComputes:    s.commComputes.Load(),
		CommCoalesced:   s.commCoalesced.Load(),
		WatchComputes:   s.watchComputes.Load(),
		WatchCoalesced:  s.watchCoalesced.Load(),
		BaselineSamples: s.sampleCount(),
		SampleIngests:   s.sampleIngests.Load(),
		CompileCache:    s.engine.CacheStats(),
	}
}

// httpError carries a status code through the compute path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/apps", s.handleListApps)
	mux.HandleFunc("POST /v1/apps", s.handleUploadApp)
	mux.HandleFunc("POST /v1/profiles", s.handleUploadProfiles)
	mux.HandleFunc("GET /v1/profiles", s.handleListProfiles)
	mux.HandleFunc("GET /v1/profiles/{app}/{np}/{hash}", s.handleGetProfiles)
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/comm", s.handleComm)
	mux.HandleFunc("POST /v1/baseline", s.handleBaseline)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	return s.logged(mux)
}

// logged wraps the mux with one log line per request.
func (s *Server) logged(next http.Handler) http.Handler {
	if s.logf == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.logf("%s %s -> %d (%d bytes)", r.Method, r.URL.Path, rec.status, rec.bytes)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// writeJSON writes an indented JSON response (trailing newline, like
// every CLI's -json output).
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// writeRaw writes pre-encoded JSON bytes untouched — the byte-identity
// contract for stored profiles and detect reports.
func writeRaw(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	type errJSON struct {
		Error string `json:"error"`
	}
	data, _ := json.MarshalIndent(errJSON{Error: fmt.Sprintf(format, args...)}, "", " ")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// fail maps a compute-path error onto an HTTP response. Store errors
// carry sentinel wraps, so each failure class lands on its own status
// instead of collapsing into 500: malformed client input is 400,
// missing content 404, ambiguous selections 409 (the client must name a
// hash), and corruption — server-side state gone bad — stays 500.
func fail(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeErr(w, he.code, "%s", he.msg)
		return
	}
	switch {
	case errors.Is(err, os.ErrInvalid):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, os.ErrNotExist):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, store.ErrAmbiguous):
		writeErr(w, http.StatusConflict, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// acquire takes one simulation-gate slot.
func (s *Server) acquire() func() {
	s.gate <- struct{}{}
	return func() { <-s.gate }
}

// lookupApp resolves an application name: uploaded apps first, then the
// bundled registry. The returned *App is stable per name for the
// server's lifetime, which is what keys the engine's compile cache.
func (s *Server) lookupApp(name string) *scalana.App {
	s.mu.Lock()
	a := s.uploaded[name]
	s.mu.Unlock()
	if a != nil {
		return a
	}
	return scalana.GetApp(name)
}

// ---- apps ----

type appUploadJSON struct {
	Name        string `json:"name"`
	Source      string `json:"source"`
	MinNP       int    `json:"min_np,omitempty"`
	Description string `json:"description,omitempty"`
}

func (s *Server) handleListApps(w http.ResponseWriter, r *http.Request) {
	type appJSON struct {
		Name  string `json:"name"`
		MinNP int    `json:"min_np"`
	}
	type listJSON struct {
		Bundled  []appJSON `json:"bundled"`
		Uploaded []appJSON `json:"uploaded"`
	}
	var out listJSON
	for _, name := range scalana.AppNames() {
		a := scalana.GetApp(name)
		out.Bundled = append(out.Bundled, appJSON{Name: a.Name, MinNP: a.MinNP})
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.uploaded))
	for name := range s.uploaded {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := s.uploaded[name]
		out.Uploaded = append(out.Uploaded, appJSON{Name: a.Name, MinNP: a.MinNP})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUploadApp(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req appUploadJSON
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	if !store.ValidName(req.Name) {
		writeErr(w, http.StatusBadRequest, "invalid app name %q (letters, digits, '.', '_', '-' only)", req.Name)
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "app %q has no source", req.Name)
		return
	}
	if req.MinNP < 1 {
		req.MinNP = 2
	}
	if scalana.GetApp(req.Name) != nil {
		writeErr(w, http.StatusConflict, "%q is a bundled workload; pick another name", req.Name)
		return
	}
	type resultJSON struct {
		App    string `json:"app"`
		MinNP  int    `json:"min_np"`
		Status string `json:"status"`
	}
	s.mu.Lock()
	if existing := s.uploaded[req.Name]; existing != nil {
		same := existing.Source == req.Source && existing.MinNP == req.MinNP
		s.mu.Unlock()
		if same {
			writeJSON(w, http.StatusOK, resultJSON{App: req.Name, MinNP: req.MinNP, Status: "exists"})
			return
		}
		writeErr(w, http.StatusConflict, "app %q is already registered with different source", req.Name)
		return
	}
	s.mu.Unlock()
	app := &scalana.App{
		Name:        req.Name,
		File:        req.Name + ".mp",
		Description: req.Description,
		Source:      req.Source,
		MinNP:       req.MinNP,
	}
	// Compile through the shared engine: this both validates the source
	// and warms the cache every later request for this app will hit.
	if _, _, err := s.engine.Compile(app, psg.Options{}); err != nil {
		writeErr(w, http.StatusBadRequest, "compile %s: %v", req.Name, err)
		return
	}
	s.mu.Lock()
	if existing := s.uploaded[req.Name]; existing != nil {
		// Lost a registration race: keep the winner so the engine cache
		// stays keyed by one *App per name.
		same := existing.Source == req.Source && existing.MinNP == req.MinNP
		s.mu.Unlock()
		if same {
			writeJSON(w, http.StatusOK, resultJSON{App: req.Name, MinNP: req.MinNP, Status: "exists"})
			return
		}
		writeErr(w, http.StatusConflict, "app %q is already registered with different source", req.Name)
		return
	}
	s.uploaded[req.Name] = app
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, resultJSON{App: req.Name, MinNP: req.MinNP, Status: "created"})
}

// ---- profiles ----

func (s *Server) handleUploadProfiles(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	// Read the envelope to find the app before the full validating
	// decode (which needs the app's compiled graph).
	appName, np, err := prof.DecodeEnvelope(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !store.ValidName(appName) {
		writeErr(w, http.StatusBadRequest, "profile set names invalid app %q", appName)
		return
	}
	app := s.lookupApp(appName)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q: upload its source to /v1/apps first", appName)
		return
	}
	if np < 1 {
		writeErr(w, http.StatusBadRequest, "profile set has invalid np %d", np)
		return
	}
	_, graph, err := s.engine.Compile(app, psg.Options{})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "compile %s: %v", appName, err)
		return
	}
	// Full validating decode against the app's symbol table, then the
	// rank checks ppg.Build applies: uploads that would fail at detect
	// time fail here instead, and only sets that build are ever stored.
	ps, err := prof.DecodeProfileSet(body, graph)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid profile set for %s: %v", appName, err)
		return
	}
	if ps.NP != np {
		writeErr(w, http.StatusBadRequest, "profile set envelope np %d disagrees with decoded np %d", np, ps.NP)
		return
	}
	if err := prof.CheckRanks(ps.Profiles); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid profile set for %s: %v", appName, err)
		return
	}
	if len(ps.Profiles) != np {
		writeErr(w, http.StatusBadRequest, "profile set for np %d holds %d rank profiles", np, len(ps.Profiles))
		return
	}
	key, err := s.st.Put(appName, np, body)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "store profile set: %v", err)
		return
	}
	s.uploads.Add(1)
	type resultJSON struct {
		store.Key
		Size  int64 `json:"size"`
		Ranks int   `json:"ranks"`
	}
	writeJSON(w, http.StatusCreated, resultJSON{Key: key, Size: int64(len(body)), Ranks: len(ps.Profiles)})
}

func (s *Server) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	var entries []store.Entry
	var err error
	if app := r.URL.Query().Get("app"); app != "" {
		entries, err = s.st.ListApp(app)
	} else {
		entries, err = s.st.List()
	}
	if err != nil {
		fail(w, err)
		return
	}
	type listJSON struct {
		Sets []store.Entry `json:"sets"`
	}
	writeJSON(w, http.StatusOK, listJSON{Sets: entries})
}

func (s *Server) handleGetProfiles(w http.ResponseWriter, r *http.Request) {
	np, err := strconv.Atoi(r.PathValue("np"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad scale %q", r.PathValue("np"))
		return
	}
	k := store.Key{App: r.PathValue("app"), NP: np, Hash: r.PathValue("hash")}
	data, err := s.st.Get(k)
	if err != nil {
		fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, data)
}

// ---- detect ----

// detectConfigJSON exposes the user-tunable detect.Config knobs. Zero
// values mean "paper default" (so a slope threshold of exactly 0 is not
// expressible — the CLI has the same property via flag defaults).
type detectConfigJSON struct {
	AbnormThd  float64 `json:"abnorm_thd,omitempty"`
	SlopeThd   float64 `json:"slope_thd,omitempty"`
	MinShare   float64 `json:"min_share,omitempty"`
	TopK       int     `json:"topk,omitempty"`
	CommCauses bool    `json:"comm_causes,omitempty"`
}

// resolve overlays the request's knobs on the paper defaults.
func (j detectConfigJSON) resolve() detect.Config {
	cfg := detect.DefaultConfig()
	if j.AbnormThd != 0 {
		cfg.AbnormThd = j.AbnormThd
	}
	if j.SlopeThd != 0 {
		cfg.SlopeThd = j.SlopeThd
	}
	if j.MinShare != 0 {
		cfg.MinShare = j.MinShare
	}
	if j.TopK != 0 {
		cfg.TopK = j.TopK
	}
	cfg.CommCauses = j.CommCauses
	return cfg
}

// configKey renders the resolved config for the single-flight key.
func configKey(cfg detect.Config) string {
	return fmt.Sprintf("%g|%g|%g|%d|%t", cfg.AbnormThd, cfg.SlopeThd, cfg.MinShare, cfg.TopK, cfg.CommCauses)
}

type detectRequest struct {
	// App names the application (bundled or uploaded).
	App string `json:"app"`
	// Scales selects stored sets by scale (exactly one stored set must
	// exist per scale), or the scales to simulate. Empty means every
	// stored scale, ascending.
	Scales []int `json:"scales,omitempty"`
	// Hashes selects stored sets by content hash (full or unique prefix),
	// mutually exclusive with Scales.
	Hashes []string `json:"hashes,omitempty"`
	// Simulate sweeps the app on the simulator instead of reading the
	// store.
	Simulate bool `json:"simulate,omitempty"`
	// SampleHz and Seed configure simulate-mode runs.
	SampleHz float64 `json:"hz,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Config tunes detection (zero fields = paper defaults).
	Config detectConfigJSON `json:"config,omitempty"`
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req detectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	app := s.lookupApp(req.App)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q", req.App)
		return
	}
	dcfg := req.Config.resolve()

	key, compute, err := s.planDetect(app, &req, dcfg)
	if err != nil {
		fail(w, err)
		return
	}
	data, _, err := s.flights.Do(key,
		func() { s.detectCoalesced.Add(1) },
		func() ([]byte, error) {
			s.detectComputes.Add(1)
			if s.detectGate != nil {
				<-s.detectGate
			}
			return compute()
		})
	if err != nil {
		fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, data)
}

// planDetect validates a detect request and returns its single-flight
// key plus the deferred computation. Resolution happens up front — the
// key must name the exact stored content (or simulation parameters) so
// that "identical request" means "identical inputs".
func (s *Server) planDetect(app *scalana.App, req *detectRequest, dcfg detect.Config) (string, func() ([]byte, error), error) {
	if req.Simulate {
		if len(req.Hashes) > 0 {
			return "", nil, errf(http.StatusBadRequest, "simulate mode reads no stored sets; drop \"hashes\"")
		}
		if len(req.Scales) == 0 {
			return "", nil, errf(http.StatusBadRequest, "simulate mode needs \"scales\"")
		}
		if err := scales.Validate(req.Scales); err != nil {
			return "", nil, errf(http.StatusBadRequest, "%v", err)
		}
		for _, np := range req.Scales {
			if np < app.MinNP {
				return "", nil, errf(http.StatusBadRequest, "%s requires at least %d ranks, got %d", app.Name, app.MinNP, np)
			}
		}
		hz := req.SampleHz
		if hz <= 0 {
			hz = s.sampleHz
		}
		key := fmt.Sprintf("detect|%s|sim|%v|hz=%g|seed=%d|%s",
			app.Name, req.Scales, hz, req.Seed, configKey(dcfg))
		nps := append([]int(nil), req.Scales...)
		return key, func() ([]byte, error) {
			release := s.acquire()
			defer release()
			pcfg := prof.DefaultConfig()
			pcfg.SampleHz = hz
			runs, err := s.engine.Sweep(app, nps, scalana.SweepConfig{
				Parallelism: s.parallel,
				Prof:        pcfg,
				Seed:        req.Seed,
			})
			if err != nil {
				return nil, err
			}
			return encodeReport(runs, dcfg)
		}, nil
	}

	entries, err := s.resolveStored(app.Name, req.Scales, req.Hashes)
	if err != nil {
		return "", nil, err
	}
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%d:%s", e.NP, e.Hash)
	}
	key := fmt.Sprintf("detect|%s|stored|%s|%s", app.Name, strings.Join(parts, ","), configKey(dcfg))
	return key, func() ([]byte, error) {
		runs, err := s.loadRuns(app, entries)
		if err != nil {
			return nil, err
		}
		return encodeReport(runs, dcfg)
	}, nil
}

// resolveStored maps a (scales, hashes) selection onto concrete store
// entries, in request order. With neither, every stored scale for the
// app is used in ascending order; each scale must resolve to exactly
// one stored set.
func (s *Server) resolveStored(appName string, scaleList []int, hashes []string) ([]store.Entry, error) {
	if len(scaleList) > 0 && len(hashes) > 0 {
		return nil, errf(http.StatusBadRequest, "pass \"scales\" or \"hashes\", not both")
	}
	if len(hashes) > 0 {
		entries := make([]store.Entry, 0, len(hashes))
		seenNP := map[int]bool{}
		for _, h := range hashes {
			e, err := s.st.Resolve(appName, h)
			if err != nil {
				return nil, err
			}
			if seenNP[e.NP] {
				return nil, errf(http.StatusBadRequest, "two selected sets share scale np=%d; detection needs one run per scale", e.NP)
			}
			seenNP[e.NP] = true
			entries = append(entries, e)
		}
		return entries, nil
	}
	if len(scaleList) == 0 {
		all, err := s.st.ListApp(appName)
		if err != nil {
			return nil, err
		}
		if len(all) == 0 {
			return nil, errf(http.StatusNotFound, "no profile sets stored for app %q", appName)
		}
		for _, e := range all {
			scaleList = append(scaleList, e.NP)
		}
		sort.Ints(scaleList)
		scaleList = dedupSorted(scaleList)
	} else if err := scales.Validate(scaleList); err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	entries := make([]store.Entry, 0, len(scaleList))
	for _, np := range scaleList {
		e, err := s.st.Only(appName, np)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func dedupSorted(nps []int) []int {
	out := nps[:0]
	for i, np := range nps {
		if i == 0 || np != nps[i-1] {
			out = append(out, np)
		}
	}
	return out
}

// loadRuns builds per-scale PPGs from stored profile sets. This is the
// service path that replaces the legacy scalana-detect -profiles
// directory loading: the store, not a filename convention, names the
// inputs.
func (s *Server) loadRuns(app *scalana.App, entries []store.Entry) ([]detect.ScaleRun, error) {
	release := s.acquire()
	defer release()
	_, graph, err := s.engine.Compile(app, psg.Options{})
	if err != nil {
		return nil, err
	}
	runs := make([]detect.ScaleRun, 0, len(entries))
	for _, e := range entries {
		data, err := s.st.Get(e.Key)
		if err != nil {
			return nil, err
		}
		ps, err := prof.DecodeProfileSet(data, graph)
		if err != nil {
			return nil, errf(http.StatusConflict, "stored set %s no longer decodes against %s: %v", e.Key, app.Name, err)
		}
		pg, err := ppg.Build(graph, ps.Profiles)
		if err != nil {
			return nil, fmt.Errorf("assemble PPG from %s: %w", e.Key, err)
		}
		runs = append(runs, detect.ScaleRun{NP: e.NP, PPG: pg})
	}
	return runs, nil
}

// encodeReport runs detection and renders the exact bytes scalana-detect
// -json writes (report JSON plus trailing newline).
func encodeReport(runs []detect.ScaleRun, dcfg detect.Config) ([]byte, error) {
	rep, err := scalana.DetectScalingLoss(runs, dcfg)
	if err != nil {
		return nil, err
	}
	data, err := rep.EncodeJSON()
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ---- sweep comparison ----

type sweepRunJSON struct {
	NP      int              `json:"np"`
	Hash    string           `json:"hash"`
	Elapsed detect.WireFloat `json:"elapsed"`
	// Speedup is elapsed at the smallest scale over elapsed here;
	// Efficiency normalizes by the scale ratio (1.0 = perfect strong
	// scaling).
	Speedup    detect.WireFloat `json:"speedup"`
	Efficiency detect.WireFloat `json:"efficiency"`
}

type sweepModelJSON struct {
	A  detect.WireFloat `json:"a"`
	B  detect.WireFloat `json:"b"`
	R2 detect.WireFloat `json:"r2"`
}

type sweepResponseJSON struct {
	App  string         `json:"app"`
	Runs []sweepRunJSON `json:"runs"`
	// Model is the log-log elapsed-vs-np fit (nil with fewer than two
	// scales).
	Model *sweepModelJSON `json:"model,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	appName := q.Get("app")
	app := s.lookupApp(appName)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q", appName)
		return
	}
	var scaleList []int
	if sl := q.Get("scales"); sl != "" {
		var err error
		scaleList, err = scales.Parse(sl)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "scales: %v", err)
			return
		}
	}
	entries, err := s.resolveStored(app.Name, scaleList, nil)
	if err != nil {
		fail(w, err)
		return
	}
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%d:%s", e.NP, e.Hash)
	}
	key := fmt.Sprintf("sweep|%s|%s", app.Name, strings.Join(parts, ","))
	data, _, err := s.flights.Do(key,
		func() { s.sweepCoalesced.Add(1) },
		func() ([]byte, error) {
			s.sweepComputes.Add(1)
			return s.computeSweep(app, entries)
		})
	if err != nil {
		fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, data)
}

func (s *Server) computeSweep(app *scalana.App, entries []store.Entry) ([]byte, error) {
	release := s.acquire()
	defer release()
	_, graph, err := s.engine.Compile(app, psg.Options{})
	if err != nil {
		return nil, err
	}
	resp := sweepResponseJSON{App: app.Name}
	var nps, elapsed []float64
	for _, e := range entries {
		data, err := s.st.Get(e.Key)
		if err != nil {
			return nil, err
		}
		ps, err := prof.DecodeProfileSet(data, graph)
		if err != nil {
			return nil, errf(http.StatusConflict, "stored set %s no longer decodes against %s: %v", e.Key, app.Name, err)
		}
		resp.Runs = append(resp.Runs, sweepRunJSON{NP: e.NP, Hash: e.Hash, Elapsed: detect.WireFloat(ps.Elapsed)})
		nps = append(nps, float64(e.NP))
		elapsed = append(elapsed, ps.Elapsed)
	}
	if len(resp.Runs) > 0 {
		baseNP, baseT := float64(resp.Runs[0].NP), float64(resp.Runs[0].Elapsed)
		for i := range resp.Runs {
			sp := baseT / float64(resp.Runs[i].Elapsed)
			resp.Runs[i].Speedup = detect.WireFloat(sp)
			resp.Runs[i].Efficiency = detect.WireFloat(sp * baseNP / float64(resp.Runs[i].NP))
		}
	}
	if model, err := fit.FitLogLog(nps, elapsed); err == nil {
		resp.Model = &sweepModelJSON{A: detect.WireFloat(model.A), B: detect.WireFloat(model.B), R2: detect.WireFloat(model.R2)}
	}
	data, err := json.MarshalIndent(resp, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ---- comm matrix ----

type commFlowJSON struct {
	Src   int              `json:"src"`
	Dst   int              `json:"dst"`
	Bytes detect.WireFloat `json:"bytes"`
	Msgs  int64            `json:"msgs"`
}

type commResponseJSON struct {
	App        string           `json:"app"`
	NP         int              `json:"np"`
	Seed       int64            `json:"seed"`
	TotalBytes detect.WireFloat `json:"total_bytes"`
	// Bytes and Msgs are the dense np*np traffic matrices in row-major
	// order (src*np+dst), as collected by the commmatrix tool.
	Bytes    []detect.WireFloat `json:"bytes"`
	Msgs     []int64            `json:"msgs"`
	TopFlows []commFlowJSON     `json:"top_flows"`
}

func (s *Server) handleComm(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	appName := q.Get("app")
	app := s.lookupApp(appName)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q", appName)
		return
	}
	np, err := strconv.Atoi(q.Get("np"))
	if err != nil || np < 1 {
		writeErr(w, http.StatusBadRequest, "bad np %q", q.Get("np"))
		return
	}
	if np < app.MinNP {
		writeErr(w, http.StatusBadRequest, "%s requires at least %d ranks, got %d", app.Name, app.MinNP, np)
		return
	}
	var seed int64
	if sv := q.Get("seed"); sv != "" {
		seed, err = strconv.ParseInt(sv, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad seed %q", sv)
			return
		}
	}
	key := fmt.Sprintf("comm|%s|np=%d|seed=%d", app.Name, np, seed)
	data, _, err := s.flights.Do(key,
		func() { s.commCoalesced.Add(1) },
		func() ([]byte, error) {
			s.commComputes.Add(1)
			return s.computeComm(app, np, seed)
		})
	if err != nil {
		fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, data)
}

func (s *Server) computeComm(app *scalana.App, np int, seed int64) ([]byte, error) {
	release := s.acquire()
	defer release()
	out, err := s.engine.Run(scalana.RunConfig{App: app, NP: np, ToolName: "commmatrix", Seed: seed})
	if err != nil {
		return nil, err
	}
	m, ok := out.Measurement.Data().(*commmatrix.Matrix)
	if !ok {
		return nil, fmt.Errorf("commmatrix tool produced no matrix")
	}
	resp := commResponseJSON{
		App: app.Name, NP: np, Seed: seed,
		TotalBytes: detect.WireFloat(m.TotalBytes()),
		Bytes:      make([]detect.WireFloat, len(m.Bytes)),
		Msgs:       m.Msgs,
	}
	for i, b := range m.Bytes {
		resp.Bytes[i] = detect.WireFloat(b)
	}
	for _, f := range m.TopFlows(10) {
		resp.TopFlows = append(resp.TopFlows, commFlowJSON{Src: f.Src, Dst: f.Dst, Bytes: detect.WireFloat(f.Bytes), Msgs: f.Msgs})
	}
	data, err := json.MarshalIndent(resp, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ---- stats ----

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
