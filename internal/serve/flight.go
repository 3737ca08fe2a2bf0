package serve

import (
	"errors"
	"sync"
)

// errFlightPanicked is what joined waiters receive when the computation
// they joined panicked instead of returning.
var errFlightPanicked = errors.New("serve: computation panicked")

// flight is one in-progress computation and its eventual result.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightGroup gives dedup (single-flight): concurrent calls with one key
// run the function once and share its result. Nothing outlives the
// computation — the entry is removed as soon as the result is
// published, so a later call recomputes. The server uses one group for
// whole requests (V = response bytes) and one inside the run cache for
// fills (V = a decoded run or sample), which is what makes concurrent
// misses on one stored set decode it once.
type flightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
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
func (g *flightGroup[K, V]) Do(key K, joined func(), fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[K]*flight[V]{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		if joined != nil {
			joined()
		}
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{}), err: errFlightPanicked}
	g.m[key] = f
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, f.err
}
