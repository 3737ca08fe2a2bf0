package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/prof"
	"scalana/internal/store"

	scalana "scalana"
)

// cacheNPs are the scales the cache tests store one cg run each at.
var cacheNPs = []int{4, 8, 16}

// newCacheServer builds a test server with the given run-cache bound
// and worker-gate width.
func newCacheServer(t *testing.T, cacheBytes int64, parallel int) (*Server, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Parallelism: parallel, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// cacheSets profiles cg once per cache scale, plus a second np=16 run
// at a different rate so watch has a history to score against.
func cacheSets(t *testing.T) (sets map[int][]byte, extra []byte) {
	t.Helper()
	eng := scalana.NewEngine()
	app := scalana.GetApp("cg")
	return encodeSets(t, eng, app, cacheNPs, 1000), encodeSets(t, eng, app, []int{16}, 500)[16]
}

// upload stores the sets on a server and returns their hashes in scale
// order.
func upload(t *testing.T, url string, sets map[int][]byte, extra []byte) []string {
	t.Helper()
	var hashes []string
	for _, np := range cacheNPs {
		if code, body := post(t, url+"/v1/profiles", "application/json", sets[np]); code != http.StatusCreated {
			t.Fatalf("upload np=%d: %d %s", np, code, body)
		}
		hashes = append(hashes, store.HashOf(sets[np]))
	}
	if extra != nil {
		if code, body := post(t, url+"/v1/profiles", "application/json", extra); code != http.StatusCreated {
			t.Fatalf("upload second np=16 run: %d %s", code, body)
		}
	}
	return hashes
}

// send is post and get for other goroutines than the test's own: it
// reports a failed round trip as an error instead of ending the test.
func send(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func detectBody(hashes []string, topk int) []byte {
	body, _ := json.Marshal(detectRequest{App: "cg", Hashes: hashes, Config: detectConfigJSON{TopK: topk}})
	return body
}

// freshReport is the uncached reference: Get, decode, build and detect
// straight from the store, outside the server.
func freshReport(t *testing.T, srv *Server, hashes []string, topk int) []byte {
	t.Helper()
	sets := map[int][]byte{}
	for i, np := range cacheNPs {
		data, err := srv.st.Get(store.Key{App: "cg", NP: np, Hash: hashes[i]})
		if err != nil {
			t.Fatal(err)
		}
		sets[np] = data
	}
	cfg := detect.DefaultConfig()
	if topk != 0 {
		cfg.TopK = topk
	}
	return offlineReport(t, scalana.GetApp("cg"), cacheNPs, sets, cfg)
}

// TestCachedRunsAreNotWritten: detect never writes to a cached PPG.
// Requests with different configs (so their flights differ) run detect
// concurrently over the same resident graphs, twice over, beside a
// watch that fills and reads baseline samples in the same cache; under
// -race any write is a reported race, and every answer must equal a
// fresh Get, decode, build and detect.
func TestCachedRunsAreNotWritten(t *testing.T) {
	sets, extra := cacheSets(t)
	srv, url := newCacheServer(t, 0, 4)
	hashes := upload(t, url, sets, extra)
	if code, body := post(t, url+"/v1/detect", "application/json", detectBody(hashes, 0)); code != http.StatusOK {
		t.Fatalf("warm detect: %d %s", code, body)
	}
	const topks = 4
	want := make([][]byte, topks+1)
	for k := 1; k <= topks; k++ {
		want[k] = freshReport(t, srv, hashes, k)
	}
	var firstWatch []byte
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		got := make([][]byte, topks+1)
		var watch []byte
		for k := 1; k <= topks; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				code, body, err := send("POST", url+"/v1/detect", detectBody(hashes, k))
				if err != nil || code != http.StatusOK {
					t.Errorf("detect topk=%d: %d %s %v", k, code, body, err)
				}
				got[k] = body
			}(k)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := send("GET", url+"/v1/watch?app=cg&np=16&min-runs=1", nil)
			if err != nil || code != http.StatusOK {
				t.Errorf("watch: %d %s %v", code, body, err)
			}
			watch = body
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for k := 1; k <= topks; k++ {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("round %d topk=%d: served report differs from a fresh decode and build", round, k)
			}
		}
		if round == 0 {
			firstWatch = watch
		} else if !bytes.Equal(watch, firstWatch) {
			t.Fatal("watch over cached samples changed between rounds")
		}
	}
	if st := srv.Stats(); st.CacheHits == 0 {
		t.Fatalf("detects never hit the run cache: %+v", st)
	}
}

// TestCacheDecodesEachSetOnce: concurrent detects with different
// configs run as separate flights, yet over the same three stored sets
// they decode and build each set exactly once.
func TestCacheDecodesEachSetOnce(t *testing.T) {
	sets, _ := cacheSets(t)
	const clients = 8
	// A gate as wide as the clients, so their loads really overlap.
	srv, url := newCacheServer(t, 0, clients)
	hashes := upload(t, url, sets, nil)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := 1; k <= clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			if code, body, err := send("POST", url+"/v1/detect", detectBody(hashes, k)); err != nil || code != http.StatusOK {
				t.Errorf("detect topk=%d: %d %s %v", k, code, body, err)
			}
		}(k)
	}
	close(start)
	wg.Wait()
	st := srv.Stats()
	if st.DetectComputes != clients {
		t.Fatalf("detect computes = %d, want %d separate flights", st.DetectComputes, clients)
	}
	if st.CacheMisses != 3 || st.CacheHits != clients*3-3 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/3", st.CacheHits, st.CacheMisses, clients*3-3)
	}
}

// exercise runs one fixed request sequence (detects, a sweep, a
// baseline warm and a watch) and returns every response body in order.
// After each request it checks that the cache holds no more than bound
// bytes.
func exercise(t *testing.T, srv *Server, url string, hashes []string, bound int64) [][]byte {
	t.Helper()
	var out [][]byte
	check := func(what string, code int, body []byte) {
		t.Helper()
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, code, body)
		}
		if st := srv.Stats(); bound > 0 && st.CacheBytes > bound {
			t.Fatalf("after %s: cache holds %d bytes, bound %d", what, st.CacheBytes, bound)
		}
		out = append(out, body)
	}
	for round := 0; round < 2; round++ {
		for _, sel := range [][]string{hashes, hashes[:2], hashes[1:], {hashes[0], hashes[2]}} {
			code, body := post(t, url+"/v1/detect", "application/json", detectBody(sel, 0))
			check(fmt.Sprintf("detect %d scales", len(sel)), code, body)
		}
	}
	code, body := get(t, url+"/v1/sweep?app=cg&scales=4,8")
	check("sweep", code, body)
	code, body = post(t, url+"/v1/baseline", "application/json", []byte(`{"app":"cg"}`))
	check("baseline", code, body)
	for _, np := range cacheNPs {
		code, body = get(t, fmt.Sprintf("%s/v1/watch?app=cg&np=%d&min-runs=1", url, np))
		check(fmt.Sprintf("watch np=%d", np), code, body)
	}
	return out
}

// TestCacheEvictionHoldsBound: a cache too small for every run evicts
// least recently used entries, never holds more than its bound, and
// serves the same bytes as an unbounded one.
func TestCacheEvictionHoldsBound(t *testing.T) {
	sets, extra := cacheSets(t)
	big, bigURL := newCacheServer(t, 0, 1)
	hashes := upload(t, bigURL, sets, extra)
	want := exercise(t, big, bigURL, hashes, 0)

	// Size the small cache from the three runs' footprint.
	probe, probeURL := newCacheServer(t, 0, 1)
	upload(t, probeURL, sets, extra)
	if code, body := post(t, probeURL+"/v1/detect", "application/json", detectBody(hashes, 0)); code != http.StatusOK {
		t.Fatalf("probe detect: %d %s", code, body)
	}
	bound := probe.Stats().CacheBytes * 3 / 4

	small, smallURL := newCacheServer(t, bound, 1)
	upload(t, smallURL, sets, extra)
	got := exercise(t, small, smallURL, hashes, bound)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("response %d differs between a %d-byte cache and an unbounded one", i, bound)
		}
	}
	if st := small.Stats(); st.CacheEvictions == 0 || st.CacheMisses <= big.Stats().CacheMisses {
		t.Fatalf("a %d-byte cache evicted nothing: %+v", bound, st)
	}
}

// TestCacheDisabled: a bound below every entry's size keeps nothing, so
// every lookup decodes afresh. Every answer matches the default
// server's byte for byte, and with one client at a time nothing is ever
// a hit or resident.
func TestCacheDisabled(t *testing.T) {
	sets, extra := cacheSets(t)
	on, onURL := newCacheServer(t, 0, 1)
	hashes := upload(t, onURL, sets, extra)
	want := exercise(t, on, onURL, hashes, 0)

	off, offURL := newCacheServer(t, 1, 1)
	upload(t, offURL, sets, extra)
	got := exercise(t, off, offURL, hashes, 1)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("response %d differs with the cache disabled", i)
		}
	}
	st := off.Stats()
	if st.CacheHits != 0 || st.CacheBytes != 0 || st.BaselineSamples != 0 || st.CacheMisses == 0 {
		t.Fatalf("disabled cache stats: %+v", st)
	}
	if on.Stats().CacheHits == 0 {
		t.Fatalf("default cache never hit: %+v", on.Stats())
	}
}

// TestSweepDoesNotFill: /v1/sweep reads only elapsed times, so on a
// cold cache it decodes without building or keeping a run, and once
// detect has made the runs resident it reads them instead, with the
// same bytes either way.
func TestSweepDoesNotFill(t *testing.T) {
	sets, _ := cacheSets(t)
	srv, url := newCacheServer(t, 0, 1)
	hashes := upload(t, url, sets, nil)
	code, cold := get(t, url+"/v1/sweep?app=cg")
	if code != http.StatusOK {
		t.Fatalf("cold sweep: %d %s", code, cold)
	}
	if st := srv.Stats(); st.CacheBytes != 0 || st.CacheMisses != 0 || st.CacheHits != 0 {
		t.Fatalf("cold sweep touched the run cache: %+v", st)
	}
	if code, body := post(t, url+"/v1/detect", "application/json", detectBody(hashes, 0)); code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, body)
	}
	before := srv.Stats()
	// A different scale list keys a new sweep flight.
	code, warm := get(t, url+"/v1/sweep?app=cg&scales=4,8,16")
	if code != http.StatusOK {
		t.Fatalf("warm sweep: %d %s", code, warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("sweep over resident runs differs from a cold one:\n%s\nvs\n%s", warm, cold)
	}
	if after := srv.Stats(); after.CacheMisses != before.CacheMisses || after.CacheBytes != before.CacheBytes || after.SweepComputes != 2 {
		t.Fatalf("warm sweep decoded or filled: before %+v, after %+v", before, after)
	}
}

// TestNegativeCacheBytesRejected: a negative bound is a configuration
// error, not a mode.
func TestNegativeCacheBytesRejected(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Store: st, CacheBytes: -1}); err == nil {
		t.Fatal("New accepted CacheBytes -1")
	}
}

// benchDetectNPs and benchSetsPerScale shape BenchmarkDetectStored like
// the stored-detect workload: zeusmp at three scales, four runs each.
var benchDetectNPs = []int{64, 128, 256}

const benchSetsPerScale = 4

// BenchmarkDetectStored measures POST /v1/detect by hash over a
// preloaded store, in process. "cached" is the default server, whose
// run cache answers every request after the first touch of each set;
// "uncached" bounds the cache at one byte, which keeps nothing, so each
// request reads, hash-checks, decodes and builds its three sets: the
// miss path.
func BenchmarkDetectStored(b *testing.B) {
	eng := scalana.NewEngine()
	app := scalana.GetApp("zeusmp")
	var sets [][][]byte // [scale][run]
	for i, np := range benchDetectNPs {
		var row [][]byte
		for j := 0; j < benchSetsPerScale; j++ {
			pcfg := prof.DefaultConfig()
			pcfg.SampleHz = 1000 + 100*float64(j)
			out, err := eng.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pcfg, Seed: int64(i*benchSetsPerScale + j)})
			if err != nil {
				b.Fatal(err)
			}
			data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Measurement.Profiles()})
			if err != nil {
				b.Fatal(err)
			}
			row = append(row, data)
		}
		sets = append(sets, row)
	}
	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{{"cached", 0}, {"uncached", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(Config{Store: st, Engine: eng, CacheBytes: mode.cacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			hashes := make([][]string, len(sets))
			for i, row := range sets {
				for _, data := range row {
					k, err := st.Put(app.Name, benchDetectNPs[i], data)
					if err != nil {
						b.Fatal(err)
					}
					hashes[i] = append(hashes[i], k.Hash)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sel := make([]string, len(hashes))
				for i := range hashes {
					sel[i] = hashes[i][(n+i)%benchSetsPerScale]
				}
				body, _ := json.Marshal(detectRequest{App: app.Name, Hashes: sel})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/detect", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("detect: %d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
