// Command scalana-serve runs the detection service: the paper's
// profile → PPG → detect → report workflow (§V) as a long-running HTTP
// server over a content-addressed profile store. Clients upload
// profile-set wire files (scalana-prof -o output, the
// prof.EncodeProfileSet format) and query detect reports, sweep
// comparisons, and communication matrices as JSON; one shared engine
// compiles each app once no matter how many uploads and queries touch
// it, and concurrent identical detect requests coalesce into a single
// computation.
//
// Usage:
//
//	scalana-serve -store /var/lib/scalana
//	scalana-serve -addr 127.0.0.1:8135 -store ./store -parallel 4
//
// Quickstart against a running server:
//
//	scalana-prof -app cg -np 4 -hz 1000 -o cg.4.json
//	curl --data-binary @cg.4.json http://localhost:8135/v1/profiles
//	curl -X POST -d '{"app":"cg"}' http://localhost:8135/v1/detect
//
// With several uploads stored per (app, np), GET /v1/watch scores the
// newest against the rolling baseline of its predecessors; the
// -watch-* flags set the default thresholds (overridable per request
// via query parameters).
//
// Each stored set is decoded and built once and then held in a run cache
// bounded by -cache-bytes. SIGINT or SIGTERM stops accepting connections
// and drains in-flight requests before the process exits 0; requests
// still running after a 30 s drain period are cut off and the process
// exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scalana/internal/baseline"
	"scalana/internal/fit"
	"scalana/internal/serve"
	"scalana/internal/store"

	scalana "scalana"
)

// drainPeriod bounds how long shutdown waits for in-flight requests.
const drainPeriod = 30 * time.Second

func main() {
	addr := flag.String("addr", "localhost:8135", "listen address")
	storeDir := flag.String("store", "", "profile store directory (required; created if missing)")
	parallel := flag.Int("parallel", 0, "bound on concurrent simulation/PPG work (0 = one per CPU); also fans simulate-mode sweeps")
	hz := flag.Float64("hz", 1000, "profiler sampling frequency for simulate-mode detect runs")
	watchZ := flag.Float64("watch-z", 3, "default z-score flagging threshold for /v1/watch")
	watchCUSUM := flag.Float64("watch-cusum", 5, "default CUSUM flagging threshold for /v1/watch")
	watchK := flag.Float64("watch-cusum-k", 0.5, "default CUSUM slack per run for /v1/watch")
	watchMinRuns := flag.Int("watch-min-runs", 2, "default minimum baseline runs before a vertex is scored")
	watchMinShare := flag.Float64("watch-min-share", 0.01, "default minimum share of total time for flagging")
	watchMerge := flag.String("watch-merge", "median", "cross-rank merge strategy baselines are built with (server-wide)")
	cacheBytes := flag.Int64("cache-bytes", 0, "bound on the run cache of decoded stored sets, in bytes (0 = 64 MiB)")
	quiet := flag.Bool("quiet", false, "suppress the per-request log")
	flag.Parse()

	if *storeDir == "" {
		fatalf("-store is required")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		fatalf("%v", err)
	}
	merge, err := fit.ParseMergeStrategy(*watchMerge)
	if err != nil {
		fatalf("-watch-merge: %v", err)
	}
	logger := log.New(os.Stderr, "scalana-serve: ", log.LstdFlags)
	cfg := serve.Config{
		Store:       st,
		Engine:      scalana.NewEngine(),
		Parallelism: *parallel,
		SampleHz:    *hz,
		Watch: baseline.Params{
			ZThd: *watchZ, CUSUMThd: *watchCUSUM, CUSUMK: *watchK,
			MinRuns: *watchMinRuns, MinShare: *watchMinShare,
		},
		Merge:      merge,
		CacheBytes: *cacheBytes,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound how long a client may take to send its request, so a
		// slow or stalled one cannot hold a connection forever. No write
		// timeout: simulate-mode detects legitimately run long.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process outright
		logger.Printf("shutting down: draining in-flight requests")
		dctx, cancel := context.WithTimeout(context.Background(), drainPeriod)
		defer cancel()
		err := hs.Shutdown(dctx)
		if err != nil {
			hs.Close()
		}
		drained <- err
	}()
	logger.Printf("listening on %s (store: %s)", *addr, st.Root())
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	if err := <-drained; errors.Is(err, context.DeadlineExceeded) {
		fatalf("shutdown: requests still running after %v were cut off", drainPeriod)
	} else if err != nil {
		fatalf("shutdown: %v", err)
	}
	logger.Printf("stopped: all requests drained")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalana-serve: "+format+"\n", args...)
	os.Exit(1)
}
