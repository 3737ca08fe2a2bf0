package serve

import (
	"errors"
	"sync"
)

// errFlightPanicked is what joined waiters receive when the computation
// they joined panicked instead of returning.
var errFlightPanicked = errors.New("serve: computation panicked")

// flight is one in-progress computation and its eventual result.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// flightGroup gives request-level dedup (single-flight): concurrent
// calls with one key run the function once and share its result. Unlike
// a cache, nothing outlives the computation — the entry is removed as
// soon as the result is published, so a later identical request
// recomputes (detection inputs are content-addressed, but detect
// configs and simulate parameters are not worth caching speculatively).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// Do runs fn under key, coalescing concurrent duplicates, and returns
// the shared result. The joined callback (optional) fires on a caller
// that found an in-flight computation, before it blocks waiting — that
// ordering is what lets tests deterministically observe "a second
// request has coalesced" while the first is still computing.
//
// If fn panics, the key is released and joined callers get
// errFlightPanicked before the panic continues up the computing
// caller's stack, so one bad computation never wedges its key.
func (g *flightGroup) Do(key string, joined func(), fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		if joined != nil {
			joined()
		}
		<-f.done
		return f.data, f.err
	}
	f := &flight{done: make(chan struct{}), err: errFlightPanicked}
	g.m[key] = f
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.data, f.err = fn()
	return f.data, f.err
}
